"""The scalar protocol simulators, one input pair at a time, kept as the
oracles for the array checks in comm (det_sweep, nondet_protocol and
nondet_violation)."""

import math

from paritydt.comm import ProtocolMessage, ProtocolTranscript, simulate_det_protocol
from paritydt.gf2 import Gf2Vector, parity


def reference_index_width(count):
    return max(1, math.ceil(math.log2(count + 1)))


def reference_accepts(ess, i, x, y):
    """Alice's constraint parities for certificate i, and Bob's verdict."""
    cs = ess.certificates[i - 1]
    abits = []
    ok = True
    for r, row in enumerate(cs.constraints.row_bits):
        a = parity(row & x.bits)
        b = parity(row & y.bits)
        abits.append(str(a))
        if a ^ b != (cs.rhs.bits >> r) & 1:
            ok = False
    return "".join(abits), ok


def reference_nondet_protocol(f, ess, x, y, choice=None):
    """Try every choice in order; the first accepting one wins, else the
    reject claim (index 0, no parity bits)."""
    k = ess.size
    iw = reference_index_width(k)
    if choice is not None:
        messages = [ProtocolMessage("alice", format(choice, f"0{iw}b"))]
        if choice == 0:
            return ProtocolTranscript(tuple(messages), 0, 0)
        abits, ok = reference_accepts(ess, choice, x, y)
        messages.append(ProtocolMessage("alice", abits))
        return ProtocolTranscript(tuple(messages), 1 if ok else 0, choice)
    for i in range(1, k + 1):
        t = reference_nondet_protocol(f, ess, x, y, i)
        if t.output == 1:
            return t
    return reference_nondet_protocol(f, ess, x, y, 0)


def reference_nondet_violation(f, ess):
    n = f.arity
    cost = reference_index_width(ess.size) + ess.codim
    for xb in range(1 << n):
        for yb in range(1 << n):
            tr = reference_nondet_protocol(f, ess, Gf2Vector(n, xb), Gf2Vector(n, yb))
            want = f.value_at(xb ^ yb)
            if tr.output != want:
                return {"x": xb, "y": yb, "output": tr.output, "expected": want}
            if tr.output == 1 and tr.total_bits != cost:
                return {"x": xb, "y": yb, "bits": tr.total_bits, "cost": cost}
    return None


def reference_det_sweep(f, tree):
    """(all correct, most bits sent) from one transcript per pair."""
    n = f.arity
    ok = True
    max_bits = 0
    for xb in range(1 << n):
        for yb in range(1 << n):
            tr = simulate_det_protocol(tree, Gf2Vector(n, xb), Gf2Vector(n, yb))
            max_bits = max(max_bits, tr.total_bits)
            ok = ok and tr.output == f.value_at(xb ^ yb)
    return ok, max_bits
