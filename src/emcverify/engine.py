"""Rearrangement procedure, the xi statistic, and the arithmetic audit.

Two layers live here.  The combinatorial layer (arrange/attempt) executes the
rearrangement rules R1-R4 and the three greedy selection steps on concrete
family tuples against a concrete matching; every threshold is injected
through ThresholdConfig so the skeleton can be exercised at desk scale where
the paper-scale guards are vacuous.  The arithmetic layer (audit) re-derives
each numeric chain the proof relies on, at the true parameter scale, in exact
integer/rational arithmetic wherever no transcendental constant appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .core import (
    FamilyTuple,
    Params,
    ShapeError,
    binomial,
    e_enclosures,
    interval_mask,
    scaled_params,
    validate_family_tuple,
)
from .concentration import default_gamma, gamma_threshold
from .constructions import gap_bound
from .densities import beta_parameter, slice_partition
from .matchings import Matching


def _integral(val) -> int:
    if isinstance(val, bool) or (isinstance(val, float) and not val.is_integer()):
        raise ValueError(val)
    return int(val)


# Field type (as annotated) -> converter of a raw config value.
_CONVERTERS = {"int": _integral, "Fraction": Fraction}


@dataclass(frozen=True)
class ThresholdConfig:
    """All numeric cutoffs of the rearrangement rules, injectable for desk runs.

    Defaults follow the source derivation: |U| = floor(2(s+1)/3), the small-
    alpha cut (s+1)/6 + gamma, the W1 cut (s+1)/3, the W2 slice requirement
    s+1 at slice ceil((s+1)/3), beta-largeness above 1/(3(s+1)), and the
    eligibility ratio 3s+2.  Fractional thresholds are exact rationals; gamma
    enters the small-alpha cut as the exact binary value of its double.
    """

    s: int
    u_target: int
    small_alpha_cut: Fraction
    w1_cut: Fraction
    w2_need: int
    third_slice: int
    beta_large_cut: Fraction
    eligibility_coeff: int

    def __post_init__(self):
        sp1 = self.s + 1
        if not 0 <= self.u_target <= sp1:
            raise ShapeError(f"u_target={self.u_target} outside [0, {sp1}]")
        if not 1 <= self.third_slice <= sp1:
            raise ShapeError(f"third_slice={self.third_slice} outside [1, {sp1}]")

    @classmethod
    def from_params(
        cls,
        params: Params,
        t: int | None = None,
        gamma: float | None = None,
    ) -> "ThresholdConfig":
        s = params.s
        if gamma is None:
            gamma = default_gamma(params.t if t is None else t, s)
        if not gamma >= 0:
            raise ShapeError(f"gamma={gamma} must be >= 0")
        sp1 = s + 1
        return cls(
            s=s,
            u_target=(2 * sp1) // 3,
            small_alpha_cut=Fraction(sp1, 6) + Fraction(gamma),
            w1_cut=Fraction(sp1, 3),
            w2_need=sp1,
            third_slice=-(-sp1 // 3),
            beta_large_cut=Fraction(1, 3 * sp1),
            eligibility_coeff=3 * s + 2,
        )

    def with_overrides(self, raw: dict) -> "ThresholdConfig":
        """This config with the fields named in ``raw`` replaced.

        Each value is converted by the type its field declares; an ``int``
        field refuses a boolean and a number with a fractional part.
        """
        updates = {}
        for key, val in raw.items():
            if key not in self.__dataclass_fields__:
                raise ShapeError(f"unknown config key {key!r}")
            try:
                updates[key] = _CONVERTERS[self.__dataclass_fields__[key].type](val)
            except (ArithmeticError, TypeError, ValueError):
                raise ShapeError(f"config key {key!r}: bad value {val!r}") from None
        return replace(self, **updates)


@dataclass(frozen=True)
class _SliceData:
    hits: dict[int, list[int]]  # j -> sorted blocks of F(j) ∩ M
    counts: tuple[int, ...]  # |F(j) ∩ M| for j = 1..s+1
    sizes: tuple[int, ...]  # |F(j)| for j = 1..s+1
    empty_size: int  # |F(∅)|


def _slice_tables(families: FamilyTuple, matching: Matching, s: int) -> list[_SliceData]:
    blocks = set(matching.members)
    out = []
    for fam in families:
        parts = slice_partition(fam, s)
        hits = {j: [b for b in parts[j].members if b in blocks] for j in range(1, s + 2)}
        out.append(
            _SliceData(
                hits=hits,
                counts=tuple(len(hits[j]) for j in range(1, s + 2)),
                sizes=tuple(len(part) for part in parts[1:]),
                empty_size=len(parts[0]),
            )
        )
    return out


def _xi_from_tables(tables, s: int) -> int:
    return sum((3 * s + 3) * d.counts[s] + sum(d.counts[:s]) for d in tables)


def xi_statistic(families: FamilyTuple, matching: Matching, s1: int) -> int:
    """(3s+3)-weighted top-slice hits plus plain hits of slices 1..s, over the first s1 families."""
    s = len(families) - 1
    if not (0 <= s1 <= s + 1):
        raise ShapeError(f"xi_statistic: s1={s1} outside [0, {s + 1}]")
    return _xi_from_tables(_slice_tables(families[:s1], matching, s), s)


@dataclass(frozen=True)
class ProcedureTrace:
    s: int
    t: int
    order: tuple[int, ...]  # position p (1-based) holds original family order[p-1] (1-based)
    s1: int
    u_target: int
    beta_large: tuple[int, ...]  # original indices with beta above the cut
    w1: tuple[int, ...]  # positions
    w2: tuple[int, ...]  # positions
    u: int
    m_values: tuple[float, ...]  # per position 1..s1; math.inf when no slice qualifies
    r: int
    failed_index: int | None
    outcome: str  # arranged | rainbow-found | step2-failed | assumptions-unmet
    xi: int
    witness: tuple[int | None, ...] | None  # member masks by original index
    assumptions_unmet: tuple[str, ...]
    rules_applied: tuple[str, ...]
    config: ThresholdConfig


def check_matching(matching: Matching, k: int, s: int) -> None:
    """Refuse a matching whose blocks overlap, are not (k-1)-sets, or meet [1, s+1]."""
    covered = 0
    for b in matching.members:
        if covered & b:
            raise ShapeError("matching file has overlapping blocks")
        covered |= b
    if matching.k != k - 1:
        raise ShapeError(f"matching blocks must be ({k - 1})-sets, got {matching.k}-sets")
    if covered & interval_mask(1, s + 1):
        raise ShapeError(f"matching blocks must avoid the prefix [1, {s + 1}]")


def _arrange_core(families: FamilyTuple, matching: Matching, config: ThresholdConfig | None):
    validate_family_tuple(families)
    s = len(families) - 1
    n, k = families[0].n, families[0].k
    check_matching(matching, k, s)
    t = len(matching.members)
    if config is None:
        config = ThresholdConfig.from_params(Params(n=n, k=k, s=s), t=t)
    if config.s != s:
        raise ShapeError(f"config is for s={config.s}, the tuple has s={s}")
    tables = _slice_tables(families, matching, s)
    assumptions: list[str] = []
    rules: list[str] = []

    beta_large = tuple(
        i + 1
        for i, fam in enumerate(families)
        if len(fam) > 0 and beta_parameter(fam).value > config.beta_large_cut
    )

    # R1: move eligible families (small empty-trace slice relative to the top
    # slice) to the front, up to the target block size.
    eligible = [
        i
        for i in range(s + 1)
        if tables[i].empty_size <= config.eligibility_coeff * tables[i].sizes[s]
    ]
    if len(eligible) < config.u_target:
        assumptions.append(
            f"R1: only {len(eligible)} of {config.u_target} families meet the "
            "slice-ratio eligibility"
        )
    u_block = eligible[: config.u_target]
    in_u = set(u_block)
    rest = [i for i in range(s + 1) if i not in in_u]
    rules.append("R1")

    # R2: inside the front block, families whose scaled top-slice density is
    # below the cut come first; s1 counts them.
    denom = binomial(n - s - 1, k - 1)

    def talpha(i: int) -> Fraction:
        return Fraction(t * tables[i].sizes[s], denom) if denom else Fraction(0)

    small = [i for i in u_block if talpha(i) <= config.small_alpha_cut]
    small_set = set(small)
    big = [i for i in u_block if i not in small_set]
    s1 = len(small)
    rules.append("R2")

    # R3: the small block is sorted by descending m (infinity first), ties by
    # original index; m is the least j in [s+1] with |F(j) ∩ M| <= s + 1 - j.
    m_of = {i: next((j for j in range(1, s + 2) if tables[i].counts[j - 1] <= s + 1 - j),
                    math.inf) for i in range(s + 1)}
    small.sort(key=lambda i: (-(s + 2 if m_of[i] == math.inf else m_of[i]), i))
    rules.append("R3")

    order0 = small + big + rest

    def classify() -> tuple[list[int], list[int]]:
        w1, w2 = [], []
        for p in range(s1 + 1, s + 2):
            i = order0[p - 1]
            if p <= len(u_block):
                w1.append(p)
            elif Fraction(tables[i].counts[s]) >= config.w1_cut:
                w1.append(p)
            else:
                w2.append(p)
        return w1, w2

    w1, w2 = classify()

    # R4: with no W1 support and every front-block top slice missing M, a
    # family that does hit M on its top slice is swapped to the last position.
    if not w1 and all(tables[order0[p - 1]].counts[s] == 0 for p in range(1, s1 + 1)):
        candidates = [p for p in w2 if tables[order0[p - 1]].counts[s] > 0]
        if candidates:
            chosen = min(candidates, key=lambda p: order0[p - 1])
            last = s + 1
            if chosen != last:
                order0[chosen - 1], order0[last - 1] = order0[last - 1], order0[chosen - 1]
            rules.append("R4")
            w1, w2 = classify()
        else:
            assumptions.append("R4: every family's top slice misses the matching")

    for p in w2:
        i = order0[p - 1]
        if tables[i].counts[config.third_slice - 1] < config.w2_need:
            assumptions.append(
                f"W2: family {i + 1} at position {p} has fewer than "
                f"{config.w2_need} hits on slice {config.third_slice}"
            )

    m_values = tuple(m_of[order0[p - 1]] for p in range(1, s1 + 1))
    xi = _xi_from_tables([tables[i] for i in order0[:s1]], s)
    trace = ProcedureTrace(
        s=s,
        t=t,
        order=tuple(i + 1 for i in order0),
        s1=s1,
        u_target=config.u_target,
        beta_large=beta_large,
        w1=tuple(w1),
        w2=tuple(w2),
        u=len(w1),
        m_values=m_values,
        r=0,
        failed_index=None,
        outcome="arranged",
        xi=xi,
        witness=None,
        assumptions_unmet=tuple(assumptions),
        rules_applied=tuple(rules),
        config=config,
    )
    return trace, order0, tables


def arrange_families(
    families: FamilyTuple, matching: Matching, config: ThresholdConfig | None = None
) -> ProcedureTrace:
    """Apply rules R1-R4 and the W1/W2 split; no selection steps are run."""
    return _arrange_core(families, matching, config)[0]


def attempt_rainbow_procedure(
    families: FamilyTuple, matching: Matching, config: ThresholdConfig | None = None
) -> ProcedureTrace:
    """Arrange, then run selection steps (1), (1'), (2), (3) greedily.

    Blocks of M are never reused.  Outcomes: rainbow-found with a verified
    witness; step2-failed with the failing position and the certified bound
    m_R <= s + 2 - r - R; assumptions-unmet when a desk-scale instance
    violates a guard the derivation takes for granted.
    """
    trace, order0, tables = _arrange_core(families, matching, config)
    s, s1 = trace.s, trace.s1
    assumptions = list(trace.assumptions_unmet)
    rules = list(trace.rules_applied)
    used: set[int] = set()
    picks: dict[int, tuple[int, int]] = {}  # position -> (slice j, block)
    r = 0

    def take(p: int, j: int) -> bool:
        """Give position p the first unused block of slice j; False if none is left."""
        for blk in tables[order0[p - 1]].hits[j]:
            if blk not in used:
                used.add(blk)
                picks[p] = (j, blk)
                return True
        return False

    def finish(outcome: str, failed_index: int | None = None, note: str | None = None):
        if note is not None:
            assumptions.append(note)
        return replace(
            trace,
            outcome=outcome,
            failed_index=failed_index,
            r=r,
            assumptions_unmet=tuple(assumptions),
            rules_applied=tuple(rules),
        )

    # Step (1): W1 positions in decreasing order get slices s+1, s, ...
    for idx, p in enumerate(sorted(trace.w1, reverse=True), start=1):
        j = s + 2 - idx
        if not take(p, j):
            return finish(
                "assumptions-unmet",
                note=f"step 1: no free block in slice {j} at position {p}",
            )
    r = len(trace.w1)

    # Step (1'): with W1 empty, one set from the top slice of the last
    # family, exactly when R4 moved a top-slice witness into that position.
    # No block is used yet, so the witness's first top-slice block is free.
    if r == 0 and "R4" in rules:
        picked = take(s + 1, s + 1)
        assert picked, "R4 leaves a top-slice block at the last position"
        r = 1
        rules.append("1'")

    # Step (2): front-block positions i take slices s + 2 - r - i.
    for i in range(1, s1 + 1):
        j = s + 2 - r - i
        if not (1 <= j <= s + 1):
            return finish(
                "assumptions-unmet",
                note=f"step 2: slice index {j} out of range at position {i}",
            )
        if not take(i, j):
            # Every block of F(j) ∩ M is spoken for, so its count is at most
            # |used| = r + i - 1 = s + 1 - j, certifying m_i <= j.
            assert trace.m_values[i - 1] <= j, "step-2 failure must certify the m bound"
            return finish("step2-failed", failed_index=i)

    # Step (3): remaining W2 positions in increasing order get slices 1, 2, ...
    vs = [p for p in sorted(trace.w2) if p not in picks]
    for jdx, p in enumerate(vs, start=1):
        if not take(p, jdx):
            return finish(
                "assumptions-unmet",
                note=f"step 3: no free block in slice {jdx} at position {p}",
            )

    # Assemble and audit the witness: block plus its slice element.
    witness: list[int | None] = [None] * (s + 1)
    acc = 0
    for p, (j, blk) in picks.items():
        member = blk | (1 << (j - 1))
        oi = order0[p - 1]
        assert member in families[oi], "witness member must belong to its family"
        assert not (acc & member), "witness members must be pairwise disjoint"
        acc |= member
        witness[oi] = member
    assert all(w is not None for w in witness), "every family needs a representative"
    final = finish("rainbow-found")
    return replace(final, witness=tuple(witness))


# --- arithmetic audit -------------------------------------------------------

CHECK_NAMES = (
    "t-floor",
    "gamma-margin",
    "union-bound",
    "gap-ratio",
    "gap-tail",
    "slice-growth",
    "slice-indexed",
    "xi-rare",
    "xi-per-family",
    "xi-final",
    "xi-total",
)


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    lhs: str
    rhs: str
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    s: int
    k: int
    n: int
    n_prime: int
    t: int
    gamma: float
    checks: tuple[AuditCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


def _double_text(x, spec: str = "") -> str:
    """format(float(x), spec) where x has a double, else x rounded to an exact integer."""
    try:
        return format(float(x), spec)
    except OverflowError:
        return str(round(x))


def audit_inequalities(
    s: int,
    k: int,
    checks=None,
    ranges: dict[str, tuple[int, int]] | None = None,
) -> AuditReport:
    """Re-derive every numeric chain of the argument at scale (n = ceil(3e(s+1)k)).

    Integer and rational steps are exact; e enters through rational brackets
    (core.e_enclosures) and gamma as a double.  ``checks`` selects by name;
    ``ranges`` overrides the quantifier ranges of the chains quantified over
    an integer (keys "j", "m", "r").  Each of those chains is linear, concave
    or monotone in its variable, so exact checks at the two range endpoints
    decide every value in the range, at any s.
    """
    if s < 2:
        raise ShapeError(f"audit_inequalities: need s >= 2, got {s}")
    if k < 1:
        raise ShapeError(f"audit_inequalities: need k >= 1, got {k}")
    selected = set(CHECK_NAMES if checks is None else checks)
    unknown = selected - set(CHECK_NAMES)
    if unknown:
        raise ShapeError(f"unknown audit checks: {sorted(unknown)}")
    ranges = ranges or {}

    params = scaled_params(s, k)
    n, t = params.n, params.t
    sp1 = s + 1
    gamma = gamma_threshold(t, s)
    gf = Fraction(gamma)  # exact value of the double
    st = s * t
    out: list[AuditCheck] = []

    def add(name, passed, lhs, rhs, note=""):
        out.append(AuditCheck(name=name, passed=bool(passed), lhs=str(lhs), rhs=str(rhs), note=note))

    if "t-floor" in selected:
        rhs = 7 * sp1 + 2
        add("t-floor", t > rhs, t, rhs, "t = floor((n-s-1)/k) must clear 7(s+1)+2; claimed for s > 10")

    if "gamma-margin" in selected:
        add(
            "gamma-margin",
            gf + 1 < Fraction(s, 12),
            float(gf + 1),
            s / 12,
            "gamma + 1 < s/12; claimed from s = 2e6 on; double-precision gamma",
        )

    if "union-bound" in selected:
        lhs = 4 * sp1**4
        rhs = s**5
        add(
            "union-bound",
            lhs < rhs,
            lhs,
            rhs,
            "exact square of 2(s+1)^2 < s^2.5, i.e. 2(s+1)^2 s^-12.5 < s^-10; holds for s > 20",
        )

    if "gap-ratio" in selected:
        sprime = Fraction(3 * sp1, 4)
        _, ratios = gap_bound(n, k, sprime)
        worst = max(ratios) if ratios else Fraction(0)
        scale = k * sprime / n  # the bound is e * scale
        # worst <= e*scale is decided by the low end of e's bracket and
        # e*scale <= 1/4 by the high end; e is irrational, so a tight enough
        # bracket decides both.
        quarter = Fraction(1, 4)
        for lo, hi in e_enclosures():
            if (worst <= lo * scale or worst > hi * scale) and (
                hi * scale <= quarter or lo * scale > quarter
            ):
                break
        add(
            "gap-ratio",
            worst <= lo * scale and hi * scale <= quarter,
            float(worst),
            float(lo * scale),
            "consecutive term ratios of the gap-set bound stay below e*k*s'/n <= 1/4; "
            "generalized binomials for rational s'; claimed for s >= 50",
        )

    if "gap-tail" in selected:
        lhs = s**8
        rhs = (t + 1) ** 5
        add("gap-tail", lhs > rhs, lhs, rhs, "exact power form of s^(8/5) > t + 1; claimed for s >= 50")

    if "slice-growth" in selected:
        a_side = (t + 1) * (Fraction(sp1, 3) + gf) + Fraction(s, 3) * t + Fraction(2 * s, 3) * (sp1 + gf)
        b_side = (gf + 1) * (s + t + 1) + Fraction(s * (2 * s + 2 * t), 3)
        c_side = (gf + 1) * (s + t + 1) + Fraction(5 * st, 6)
        cut = Fraction(st, 6 * (s + t + 1))
        ok = (
            t >= 6 * sp1
            and a_side <= b_side <= c_side < st
            and gf + 1 < cut
            and cut >= Fraction(s, 7)
            and gf + 1 <= Fraction(sp1, 12)
        )
        add(
            "slice-growth",
            ok,
            _double_text(c_side),
            st,
            "W1 counting chain; the first step exceeds by exactly s*gamma/3 + 2t/3 + 2/3, "
            "the middle needs 4s <= t, the close needs gamma + 1 < st/(6(s+t+1)) >= s/7",
        )

    if "slice-indexed" in selected:
        j_lo, j_hi = ranges.get("j", (-(-sp1 // 6), sp1))
        ok = t >= 1 and 3 * (3 * s + j_hi) <= 2 * t and gf + 1 < Fraction(sp1, 11)
        margins = []
        # b - a = 3j*gamma and st - c are linear in j, c - b = j(2t/3 - 3s - j)
        # is concave, and j*t/(3(3s+3+4j)) increases with j while 3s+3+4j > 0
        # (a <= b forces j >= 0 at both ends, and an endpoint with
        # 3s+3+4j <= 0 fails), so the endpoints decide every j.
        for j in {j_lo, j_hi}:
            den = 3 * s + 3 + 4 * j
            a_j = (3 * s + 3 + j) * (j + 1 + gf) + (s - j) * t
            b_j = st - j * t + (3 * s + j) * j + den * (1 + gf)
            c_j = st - Fraction(j * t, 3) + den * (1 + gf)
            ok = ok and b_j - a_j == 3 * j * gf and b_j <= c_j and c_j < st
            ok = ok and den > 0 and Fraction(j * t, 3 * den) > Fraction(sp1, 11)
            if j_lo <= j_hi:  # an empty range quantifies over nothing
                ok = ok and a_j <= b_j
                margins.append(st - c_j)
        add(
            "slice-indexed",
            ok,
            f"min margin {_double_text(min(margins, default=math.inf), '.6g')}",
            "0",
            f"W2 counting chain for all j in [{j_lo}, {j_hi}]; first step exceeds by "
            "exactly 3*j*gamma, middle needs 3s + j <= 2t/3, close needs "
            "gamma + 1 < j*t/(3(3s+3+4j)) > (s+1)/11",
        )

    if "xi-rare" in selected:
        s1_max = (2 * sp1) // 3
        lhs = s1_max * (4 * s + 3) * t
        ok = lhs < 3 * s * s * t < s**4
        add(
            "xi-rare",
            ok,
            lhs,
            s**4,
            "crude cap s1(4s+3)t < 3s^2t < s^4 (claimed s >= 40); scaled by the "
            "s^-10 off-event probability this is the s^-6 milestone",
        )

    if "xi-per-family" in selected:
        m_lo, m_hi = ranges.get("m", (1, sp1))
        ident = (3 * s + 3) * Fraction(sp1, 3) == Fraction(sp1**2)
        cap = Fraction(sp1, 6) + 2 * gf < Fraction(sp1, 3)
        support = t >= 4 * s + 4
        ok = ident and cap and support
        # direct == folded is a polynomial identity in m and relaxed - folded
        # = m(s+1-m) is concave, so the endpoints decide every m.
        for m in {m_lo, m_hi} if m_lo <= m_hi else ():
            direct = (4 * s + 4 - m) * (sp1 - m) + (m - 1) * t
            folded = st - (sp1 - m) * (t - 4 * s - 4 + m)
            relaxed = st - (sp1 - m) * (t - 4 * s - 4)
            ok = ok and direct == folded <= relaxed
        add(
            "xi-per-family",
            ok,
            f"identity over m in [{m_lo}, {m_hi}]",
            "st - (s+1-m)(t-4s-4)",
            "early positions cost at most st + (s+1)^2 since (s+1)/6 + 2*gamma < (s+1)/3; "
            "failing-tail positions fold to st - (s+1-m)(t-4s-4+m) exactly; the final "
            "chain weakens 4s+4 to 5s+5",
        )

    if "xi-final" in selected:
        support = t - 5 * s - 5 >= 2 * sp1 + 2
        ok = bool(support)
        r_lo, r_hi = ranges.get("r", (1, max(1, sp1 // 6)))
        # Quantifier floor: with u = r (worst case), the available-position
        # count s1 - R + 1 still clears (s+1)/2.  The scaled-by-6 margin is
        # linear in r, so the endpoints decide every r.
        for r in {r_lo, r_hi} if r_lo <= r_hi else ():
            u = r
            margin6 = (4 * sp1 - 6 * u) - (sp1 - 6 * r + 6) + 6 - 3 * sp1
            ok = ok and margin6 >= 0
        # Corner evaluations of the full chain with exact arithmetic.
        worst = None
        ceil_sixth = -(-sp1 // 6)
        ceil_two_thirds = -(-2 * sp1 // 3)
        for r in {r_lo, r_hi}:
            r_max_R = max(1, ceil_sixth - r)  # largest integer below (s+1)/6 - r + 1
            for big_r in {1, r_max_R}:
                s1_min = max(big_r, ceil_two_thirds - r)
                for s1 in {s1_min, sp1}:
                    if s1 < big_r:
                        continue
                    ok = ok and Fraction(s1 - big_r + 1) >= Fraction(sp1, 2)
                    val1 = (big_r - 1) * (st + sp1**2) + (s1 - big_r + 1) * (
                        st - (big_r + r - 1) * (t - 5 * s - 5)
                    )
                    val2 = (
                        s1 * st
                        + (big_r - 1) * sp1**2
                        - (s1 - big_r + 1) * (big_r + r - 1) * (t - 5 * s - 5)
                    )
                    ok = ok and val1 == val2
                    val3 = (
                        s1 * st
                        + (big_r - 1) * sp1**2
                        - Fraction(sp1, 2) * (big_r + r - 1) * (t - 5 * s - 5)
                    )
                    ok = ok and Fraction(val2) <= val3
                    val4 = (
                        s1 * st
                        - (big_r - 1) * Fraction(sp1, 2) * ((t - 5 * s - 5) - 2 * sp1)
                        - r * Fraction(sp1, 2) * (t - 5 * s - 5)
                    )
                    ok = ok and val3 == val4
                    val5 = s1 * st - (big_r + r - 1) * sp1
                    ok = ok and val4 <= val5 <= s1 * st - sp1
                    margin = s1 * st - sp1 - val1
                    if worst is None or margin < worst:
                        worst = margin
        add(
            "xi-final",
            ok,
            f"corner margin {worst}",
            "0",
            "good-event chain: s1 - R + 1 >= (s+1)/2 for all r >= u, then monotone "
            "descent to s1*st - (s+1); needs t - 5s - 5 >= 2(s+1) + 2",
        )

    if "xi-total" in selected:
        lhs = s**4
        rhs = sp1 * (s**6 - 1)
        add(
            "xi-total",
            lhs < rhs,
            lhs,
            rhs,
            "assembly margin s^-6 < (s+1)(s^-4 - s^-10), cleared of denominators "
            "(multiply by s^10); combines the rare-event milestone with the "
            "good-event gain",
        )

    return AuditReport(
        s=s, k=k, n=n, n_prime=params.n_prime, t=t, gamma=gamma, checks=tuple(out)
    )


def audit_scan_down(
    s: int, k: int, checks=None, factor: int = 2, floor_s: int = 2
) -> dict:
    """Halve s until some selected check fails; report the path and first failure."""
    if factor < 2:
        raise ShapeError("audit_scan_down: factor must be at least 2")
    path = []
    first_failing = None
    cur = s
    while cur >= max(2, floor_s):
        report = audit_inequalities(cur, k, checks=checks)
        failing = report.failing()
        path.append({"s": cur, "all_passed": report.all_passed, "failing": list(failing)})
        if failing:
            first_failing = cur
            break
        cur //= factor
    return {"start_s": s, "k": k, "path": path, "first_failing_s": first_failing}
