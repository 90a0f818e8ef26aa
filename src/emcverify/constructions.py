"""The two competing extremal families and the gap-set bound evaluators.

Kind "A" is every k-set of [n] that meets the initial segment [s]; kind "B"
is every k-set packed inside [(s+1)k - 1].  Both have matching number s, and
which one is larger depends on how n compares to roughly (k+1)(s+1).

The gap sets are arithmetic progressions used to certify that families made
of far-apart elements are small: the dense one has step 3(s+1)/4 (only
defined when that is an integer), the sparse one has step 3(s+1).

The exact maxima behind ``verify emc|rainbow-emc`` walk the shifted families
on [(s+1)k] once per (k, s): their traces there decide the matching number
and cross-dependence, and size the largest family on every [n] in closed form.
The rainbow maximum starts from the classic one and tries only the
inclusion-minimal traces that rank above it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .core import (MATERIALIZATION_CAP, Params, SetFamily, ShapeError, _derived_family, binomial,
                   enumerate_ksets, interval_mask, mask_from_elements)
from .matchings import find_rainbow, matching_number
from .transforms import enumerate_shifted_families

def _require_kind(kind: str) -> str:
    if kind not in ("A", "B"):
        raise ShapeError(f"extremal kind must be 'A' or 'B', got {kind!r}")
    return kind


def size_extremal(params: Params, kind: str) -> int:
    """Exact size: |A| = C(n,k) - C(n-s,k), |B| = C((s+1)k - 1, k)."""
    _require_kind(kind)
    n, k, s = params.n, params.k, params.s
    if kind == "A":
        # s >= n leaves nothing outside the prefix, so the subtrahend is 0
        return binomial(n, k) - binomial(max(n - s, 0), k)
    if n < (s + 1) * k - 1:
        raise ShapeError(f"kind B needs n >= (s+1)k - 1 = {(s + 1) * k - 1}, got n={n}")
    return binomial((s + 1) * k - 1, k)


@lru_cache(maxsize=64)
def _trace_walk(k: int, s: int) -> tuple[tuple[SetFamily, tuple[int, ...]], ...]:
    """Every shifted family T on [m], m = (s+1)k, with its counts c_0..c_k.

    The largest shifted family on [n >= m] with trace T keeps A iff B*(A) is in
    T, b*_i = min(a_i, m - k + i), and has sum_j c_j C(n - m, j) members: c_j
    counts the (k-j)-sets A' of [m] with B*(A', then the top j elements of [m])
    in T, so a member of T whose top r elements are m - r + 1..m adds C(r, j).
    """
    m = (s + 1) * k
    walk = []
    for trace in enumerate_shifted_families(m, k):
        runs = [m - (interval_mask(1, m) & ~b).bit_length() for b in trace.members]
        walk.append((trace, tuple(sum(math.comb(r, j) for r in runs) for j in range(k + 1))))
    return tuple(walk)


def _ranked_traces(n: int, k: int, s: int) -> list[tuple[int, SetFamily]]:
    """(sum_j c_j C(n - m, j), T) per trace T of ``_trace_walk``, largest first."""
    free = n - (s + 1) * k
    return sorted(((sum(c * binomial(free, j) for j, c in enumerate(counts)), trace)
                   for trace, counts in _trace_walk(k, s)), key=lambda p: -p[0])


def classic_max_bounded_nu(n: int, k: int, s: int) -> int:
    """Largest family on [n] with matching number <= s.  Shifting keeps the size
    and never raises the matching number, and s + 1 disjoint members of a shifted
    family pushed onto [m], m = (s+1)k, in order stay disjoint members; so this is
    the largest closure of a trace on [m] with matching number <= s, and below
    n = m every family qualifies."""
    if n < (s + 1) * k:
        return binomial(n, k)
    return next(size for size, trace in _ranked_traces(n, k, s) if matching_number(trace) <= s)


def rainbow_max_min_size(n: int, k: int, s: int) -> int:
    """Largest min-size over cross-dependent (s+1)-tuples of families on [n].

    The traces on [m] decide, as in ``classic_max_bounded_nu``, which is a
    floor: a family F with matching number <= s makes the cross-dependent tuple
    (F, ..., F).  The ranked traces above the floor are tried largest first,
    each with every nondecreasing s-tuple of the inclusion-minimal traces kept
    so far, and the first that closes a cross-dependent tuple gives the answer.
    This is exact:

    - for traces T ⊊ T', every b in T' - T is in the closure of T' and not of
      T, so a superset always ranks before its subset, and the kept traces are
      the minimal ones among all traces up to the current rank;
    - shrinking a family keeps a tuple cross-dependent, so the first rank that
      closes a cross-dependent tuple over all traces up to it closes one over
      the kept traces, and a tuple without the current trace was tried before.

    k = 0 is refused: there s + 1 copies of ∅ count as a rainbow, though
    ν({∅}) = 1, so the floor fails.
    """
    if k < 1:
        raise ShapeError(f"k must be >= 1, got {k}")
    if n < (s + 1) * k:
        return binomial(n, k)
    floor = classic_max_bounded_nu(n, k, s)
    kept: list[SetFamily] = []
    for size, trace in _ranked_traces(n, k, s):
        if size <= floor:
            return floor
        members = set(trace.members)
        kept = [t for t in kept if not members.issubset(t.members)] + [trace]
        for rest in itertools.combinations_with_replacement(kept, s):
            if not find_rainbow((*rest, trace)).complete:
                return size


def emc_grid(n_max: int, k_max: int, s_max: int, rainbow: bool = False) -> list[dict]:
    """One row per (n, k, s), k <= k_max, s <= s_max, (s+1)k <= n <= n_max: the sizes
    of A and B, the larger as expected, and the exact maximum (rainbow or
    classic) as found with its verdict, or the guard's message as skipped."""
    search = rainbow_max_min_size if rainbow else classic_max_bounded_nu
    rows = []
    for k, s in itertools.product(range(1, k_max + 1), range(1, s_max + 1)):
        for n in range((s + 1) * k, n_max + 1):
            params = Params(n=n, k=k, s=s)
            a, b = size_extremal(params, "A"), size_extremal(params, "B")
            row = {"n": n, "k": k, "s": s, "size_a": a, "size_b": b, "expected": max(a, b)}
            rows.append(row)
            try:
                row["found"] = search(n, k, s)
            except ShapeError as exc:
                row["skipped"] = str(exc)
            else:
                row["verdict"] = row["found"] == row["expected"]
    return rows


def size_A_layered(params: Params) -> int:
    """Layered count of kind A: sum over i in [s] of C(n - i, k - 1).

    Counting members by their smallest element inside [s] gives the same
    total as the inclusion-exclusion form in size_extremal.
    """
    n, k, s = params.n, params.k, params.s
    if n < s + k and s > 0:
        raise ShapeError(f"size_A_layered: need n >= s + k, got n={n}, s={s}, k={k}")
    return sum(binomial(n - i, k - 1) for i in range(1, s + 1))


def build_extremal(params: Params, kind: str) -> SetFamily:
    """Materialize family A or B on ground set [n]."""
    _require_kind(kind)
    n, k, s = params.n, params.k, params.s
    size = size_extremal(params, kind)
    if size > MATERIALIZATION_CAP:
        raise ShapeError(
            f"build_extremal: family has {size} members, cap is {MATERIALIZATION_CAP}"
        )
    if kind == "A":
        prefix = interval_mask(1, s)
        members = (m for m in enumerate_ksets(n, k) if m & prefix)
    else:
        members = enumerate_ksets((s + 1) * k - 1, k)
    return _derived_family(n, k, members)


def _dense_step(s: int) -> int:
    # Step s' = 3(s+1)/4; refuse non-integral values instead of rounding,
    # since every dense-gap bound downstream assumes the exact step.
    num = 3 * (s + 1)
    if num % 4 != 0:
        raise ShapeError(
            f"dense gap set needs 3(s+1)/4 integral; s={s} gives {num}/4 — "
            "adjust s to satisfy s = 3 (mod 4)"
        )
    return num // 4


def build_gap_set(params: Params, variant: str) -> int:
    """Arithmetic-progression k-set as a bitmask.

    dense: {s', 2s', ..., ks'} with s' = 3(s+1)/4 (integrality required);
    sparse: {3(s+1), 6(s+1), ..., 3k(s+1)}, which needs 3k(s+1) <= n.
    """
    n, k, s = params.n, params.k, params.s
    if variant == "dense":
        step = _dense_step(s)
    elif variant == "sparse":
        step = 3 * (s + 1)
    else:
        raise ShapeError(f"gap-set variant must be 'dense' or 'sparse', got {variant!r}")
    top = step * k
    if top > n:
        raise ShapeError(f"gap set {variant}: largest element {top} exceeds n={n}")
    return mask_from_elements([step * p for p in range(1, k + 1)])


def gap_bound(n: int, k: int, step: Fraction | int) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The gap-set bound at a possibly rational step s'.

    Returns (sum over p in [k] of C(s'p - 1, p) * C(n - s'p + 1, k - p),
    consecutive term ratios term_{p+1}/term_p).  The binomials are
    generalized (falling factorials), so the audit can evaluate them at
    s' = 3(s+1)/4 for any s.  With s' = a/b, every term is an integer
    numerator C(k, p) * prod(ap - ib, i = 1..p) * prod(b(n+1) - ap - ib,
    i = 0..k-p-1), two arithmetic progressions, over the common denominator
    b^k * k!, so only the sum and the ratios are reduced.
    """
    step = Fraction(step)
    a, b = step.numerator, step.denominator
    top = b * (n + 1)
    nums = [
        math.comb(k, p) * math.prod(range(a * p - p * b, a * p, b))
        * math.prod(range(top - a * p - (k - p - 1) * b, top - a * p + 1, b))
        for p in range(1, k + 1)
    ]
    ratios = tuple(Fraction(nums[p + 1], nums[p]) for p in range(len(nums) - 1) if nums[p] > 0)
    return Fraction(sum(nums), b**k * math.factorial(k)), ratios


def lemma3_bound(params: Params) -> tuple[int, tuple[Fraction, ...]]:
    """Closed-form member bound for families avoiding dominance over the dense gap set.

    Returns the gap_bound at the integral step s' = 3(s+1)/4: the member
    bound as an integer and the consecutive term ratios, which the audit
    checks are at most e*k*s'/n.
    """
    n, k, s = params.n, params.k, params.s
    step = _dense_step(s)
    if n <= k * step:
        raise ShapeError(f"lemma3_bound: need n > k*s' = {k * step}, got n={n}")
    total, ratios = gap_bound(n, k, step)
    return int(total), ratios
