"""The scalar block-packing DP and its witness walk, kept as the oracle
for classical._packing_dp and the block sensitivity built on it."""

from paritydt.boolfn import _table_xor_translate
from paritydt.classical import BlockFamily

_packing_memo: dict[tuple[int, int], int] = {}


def reference_max_packing(n, sens):
    """Maximum number of disjoint coordinate blocks marked in ``sens``
    (a bitmap over block masks)."""
    got = _packing_memo.get((n, sens))
    if got is not None:
        return got
    dp = [0] * (1 << n)
    for mask in range(1, 1 << n):
        ib = mask & -mask
        best = dp[mask ^ ib]
        rest = mask ^ ib
        sub = rest
        while True:
            blk = sub | ib
            if (sens >> blk) & 1:
                cand = 1 + dp[mask ^ blk]
                if cand > best:
                    best = cand
            if sub == 0:
                break
            sub = (sub - 1) & rest
        dp[mask] = best
    out = dp[(1 << n) - 1]
    _packing_memo[(n, sens)] = out
    return out


def reference_sens_bitmap(arity, table, xb):
    """Bitmap over nonempty block masks p with f(x ^ p) != f(x)."""
    t = _table_xor_translate(table, arity, xb)
    full = (1 << (1 << arity)) - 1
    return (full & ~t) if (t & 1) else t


def _within(mask):
    """Bitmap of all block masks that are submasks of ``mask``."""
    out = 0
    sub = mask
    while True:
        out |= 1 << sub
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return out


def reference_packing_blocks(n, sens):
    """One maximum packing: skip the lowest coordinate when that keeps the
    maximum, else take the first block through it, in submask-descending
    order, that does."""
    blocks = []
    mask = (1 << n) - 1
    while mask:
        target = reference_max_packing(n, sens & _within(mask))
        ib = mask & -mask
        if reference_max_packing(n, sens & _within(mask ^ ib)) == target:
            mask ^= ib
            continue
        rest = mask ^ ib
        sub = rest
        while True:
            blk = sub | ib
            if (sens >> blk) & 1 and 1 + reference_max_packing(n, sens & _within(mask ^ blk)) == target:
                blocks.append(blk)
                mask ^= blk
                break
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return blocks


def reference_block_sensitivity(f, x):
    """(value, BlockFamily) at the input x, by the scalar DP."""
    n = f.arity
    sens = reference_sens_bitmap(n, f.table, x.bits)
    blocks = reference_packing_blocks(n, sens)
    fam = BlockFamily(x, tuple(tuple(j + 1 for j in range(n) if (b >> j) & 1) for b in blocks))
    return reference_max_packing(n, sens), fam


def reference_bs_scan(f):
    """(bs, the first input reaching it), one input at a time."""
    best, arg = -1, 0
    for xb in range(1 << f.arity):
        v = reference_max_packing(f.arity, reference_sens_bitmap(f.arity, f.table, xb))
        if v > best:
            best, arg = v, xb
    return best, arg
