"""Exact parity complexity measures of Boolean functions.

Truth-table exact computation of decision tree depth, certificate
complexity and block sensitivity in both the classical and the parity
query model, certificate-driven evaluation, seeded gap constructions,
xor-lifted communication protocols, and exact Fourier spectra.
"""

from .boolfn import (
    BooleanFunction,
    FourierSpectrum,
    RestrictedFunction,
    as_restricted,
    fourier,
    local_point,
    parse_function_spec,
    restrict,
    restrict_with_frame,
    rotate,
    shift,
)
from .certify import (
    EssentialSet,
    ParityOracle,
    essential_certificate_set,
    evaluate_via_certificates,
    verify_essential_set,
)
from .classical import (
    BlockFamily,
    ClassicalCertificate,
    DecisionLeaf,
    DecisionNode,
    block_sensitivity,
    bs,
    c,
    c0,
    c1,
    certificate_complexity,
    certificate_profile,
    decision_depth,
    sampled_symmetrized,
    symmetrized,
    tree_depth,
    tree_eval,
)
from .comm import (
    ProtocolTranscript,
    XorFunction,
    conjecture_report,
    nondet_cost_bound,
    nondet_protocol,
    simulate_det_protocol,
    xor_matrix_rank,
)
from .construct import (
    GapInstance,
    check_linear_on_coset_bound,
    sample_thm_exp,
    tau,
    zoo,
)
from .errors import (
    BudgetExceededError,
    DimensionError,
    DomainError,
    FunctionSpecError,
    ParitydtError,
)
from .gf2 import (
    Coset,
    Gf2Matrix,
    Gf2Vector,
    enumerate_gl,
    gl_order,
    sample_gl,
    solve,
    subspace_count,
)
from .parity import (
    MeasureValue,
    ParityCertificate,
    ParityDecisionTree,
    ParityLeaf,
    ParityQuery,
    c0_xor,
    c1_xor,
    c_xor,
    cxor_profile,
    d_xor,
    parity_bs,
    parity_certificate,
    parity_depth,
    pdt_depth,
    pdt_eval,
    sampled_parity_bs,
    sampled_weak_parity_bs,
    wbs_xor,
    weak_parity_bs,
)

__version__ = "0.1.0"
