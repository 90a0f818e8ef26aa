import decimal
import math
import random
from fractions import Fraction

import pytest

from emcverify import engine
from emcverify.core import Params, SetFamily, ShapeError, enumerate_ksets, scaled_params
from emcverify.engine import (
    CHECK_NAMES,
    ThresholdConfig,
    arrange_families,
    attempt_rainbow_procedure,
    audit_inequalities,
    audit_scan_down,
    xi_statistic,
)
from emcverify.densities import slice_partition
from emcverify.matchings import find_rainbow, sample_matching


def fam(n, k, *sets):
    return SetFamily.from_sets(n, k, sets)


def blocks(n, *sets):
    return SetFamily.from_sets(n, len(sets[0]) if sets else 1, sets)


class TestThresholdConfig:
    def test_defaults(self):
        cfg = ThresholdConfig.from_params(Params(n=40, k=2, s=5), t=10, gamma=2.5)
        assert cfg.u_target == 4
        assert cfg.small_alpha_cut == Fraction(1) + Fraction(2.5)
        assert cfg.w1_cut == Fraction(2)
        assert cfg.w2_need == 6
        assert cfg.third_slice == 2
        assert cfg.beta_large_cut == Fraction(1, 18)
        assert cfg.eligibility_coeff == 17

    def test_gamma_defaults_to_threshold(self):
        p = Params(n=40, k=2, s=5)
        cfg = ThresholdConfig.from_params(p)
        gamma = 10 * math.sqrt(p.t * math.log(5))
        assert cfg.small_alpha_cut == Fraction(p.s + 1, 6) + Fraction(gamma)
        tiny = ThresholdConfig.from_params(Params(n=8, k=2, s=1))
        assert tiny.small_alpha_cut == Fraction(2, 6) + Fraction(0.0)

    def test_negative_gamma_refused(self):
        with pytest.raises(ShapeError, match="gamma=-1 must be >= 0"):
            ThresholdConfig.from_params(Params(n=8, k=2, s=1), gamma=-1)

    def test_with_overrides_converts_by_field_type(self):
        base = ThresholdConfig.from_params(Params(n=8, k=2, s=1))
        cfg = base.with_overrides({"u_target": 1.0, "w2_need": "3", "w1_cut": "1/3"})
        assert (cfg.u_target, cfg.w2_need, cfg.w1_cut) == (1, 3, Fraction(1, 3))
        assert type(cfg.u_target) is int
        for raw, message in [
            ({"u_target": 1.7}, "config key 'u_target': bad value 1.7"),
            ({"u_target": True}, "config key 'u_target': bad value True"),
            ({"w1_cut": "abc"}, "config key 'w1_cut': bad value 'abc'"),
            ({"bogus": 1}, "unknown config key 'bogus'"),
        ]:
            with pytest.raises(ShapeError) as info:
                base.with_overrides(raw)
            assert str(info.value) == message


def compute_m(family, matching, s):
    """Smallest j in [s+1] with |F(j) ∩ M| <= s + 1 - j, else infinity."""
    parts, hit = slice_partition(family, s), set(matching.members)
    return next((j for j in range(1, s + 2)
                 if sum(b in hit for b in parts[j].members) <= s + 1 - j), math.inf)


class TestComputeM:
    def setup_method(self):
        self.m = blocks(6, (3,), (4,), (5,))  # 1-blocks, t = 3

    def test_no_hits(self):
        assert compute_m(fam(6, 2, (1, 6)), self.m, s=1) == 1

    def test_saturated_is_infinite(self):
        f = fam(6, 2, *[(j, x) for j in (1, 2) for x in (3, 4, 5)])
        assert compute_m(f, self.m, s=1) == math.inf

    def test_two_zero(self):
        f = fam(6, 2, (1, 3), (1, 4))
        assert compute_m(f, self.m, s=1) == 2


class TestXiStatistic:
    def setup_method(self):
        self.m = blocks(6, (3,), (4,), (5,))

    def test_zero_prefix(self):
        f = fam(6, 2, (1, 3))
        assert xi_statistic((f, f), self.m, s1=0) == 0

    def test_single_top_hit(self):
        f_top = fam(6, 2, (2, 3))  # one hit on the top slice only
        f_other = fam(6, 2, (1, 4))
        assert xi_statistic((f_top, f_other), self.m, s1=1) == 6
        assert xi_statistic((f_top, f_other), self.m, s1=2) == 6 + 1

    def test_saturated(self):
        full = SetFamily.from_masks(6, 2, enumerate_ksets(6, 2))
        t = 3
        total = xi_statistic((full, full), self.m, s1=2)
        assert total == 2 * (6 * t + t)

    def test_range_check(self):
        f = fam(6, 2, (1, 3))
        with pytest.raises(ShapeError):
            xi_statistic((f, f), self.m, s1=3)

    def test_monotone_in_members(self):
        rng = random.Random(103)
        layer = list(enumerate_ksets(7, 2))
        m = blocks(7, (4,), (5,), (6,))
        for _ in range(80):
            members = rng.sample(layer, rng.randint(0, 10))
            f1 = SetFamily.from_masks(7, 2, members)
            extra = SetFamily.from_masks(7, 2, set(members) | {rng.choice(layer)})
            other = SetFamily.from_masks(7, 2, rng.sample(layer, 5))
            for s1 in (1, 2):
                assert xi_statistic((extra, other), m, s1) >= xi_statistic(
                    (f1, other), m, s1
                )


class TestArrangeSmall:
    """Two full layers on [6], s = 1: both positions land in W1."""

    def setup_method(self):
        full = SetFamily.from_masks(6, 2, enumerate_ksets(6, 2))
        self.families = (full, full)
        self.matching = blocks(6, (3,), (4,), (5,))

    def test_arrange(self):
        trace = arrange_families(self.families, self.matching)
        assert trace.outcome == "arranged"
        assert trace.order == (1, 2)
        assert trace.s1 == 0 and trace.u_target == 1
        assert trace.w1 == (1, 2) and trace.w2 == ()
        assert trace.u == 2
        assert trace.assumptions_unmet == ()
        assert trace.rules_applied == ("R1", "R2", "R3")
        assert trace.witness is None

    def test_attempt_finds_rainbow(self):
        trace = attempt_rainbow_procedure(self.families, self.matching)
        assert trace.outcome == "rainbow-found"
        assert trace.r == 2
        w = trace.witness
        assert w is not None
        assert sorted(map(bin, w)) == sorted(
            map(bin, (0b1001, 0b110))
        )  # {1,4} and {2,3}
        assert trace.failed_index is None

    def test_attempt_extends_arrange(self):
        arranged = arrange_families(self.families, self.matching)
        attempted = attempt_rainbow_procedure(self.families, self.matching)
        for field in ("order", "s1", "w1", "w2", "u", "m_values", "beta_large"):
            assert getattr(arranged, field) == getattr(attempted, field)


class TestEmptyFamilies:
    def test_step2_fails_at_first_position(self):
        e = fam(6, 2)
        matching = blocks(6, (3,), (4,), (5,))
        trace = attempt_rainbow_procedure((e, e), matching)
        assert trace.outcome == "step2-failed"
        assert trace.failed_index == 1
        assert trace.m_values == (1,)
        assert trace.r == 0
        assert trace.witness is None
        assert any("R4" in a for a in trace.assumptions_unmet)
        assert any("W2" in a for a in trace.assumptions_unmet)
        assert trace.beta_large == ()


@pytest.mark.parametrize("procedure", [arrange_families, attempt_rainbow_procedure])
@pytest.mark.parametrize("sets, message", [
    ([(3, 4), (4, 5)], "matching file has overlapping blocks"),
    ([(3,), (4,)], r"matching blocks must be \(2\)-sets, got 1-sets"),
    ([(2, 3), (4, 5)], r"matching blocks must avoid the prefix \[1, 2\]"),
], ids=["overlap", "block-size", "prefix"])
def test_bad_matching_refused(procedure, sets, message):
    # s = 1 and k = 3: M must be disjoint 2-sets inside [3, 7]
    layer = SetFamily.from_masks(7, 3, enumerate_ksets(7, 3))
    with pytest.raises(ShapeError, match=message):
        procedure((layer, layer), blocks(7, *sets))


def build_swap_instance():
    """s = 5 instance exercising R4, step (1'), step (2) and step (3) together.

    Four front families hit every low slice but miss the top slice; one tail
    family touches the matching only through its top slice (it gets swapped
    last and donates the single step-(1') set); the other tail family feeds
    step (3).
    """
    n, s = 19, 5
    mrange = range(7, 13)  # matching covers 7..12, tail runs to 19
    front = [(j, x) for j in range(1, 6) for x in mrange] + [(6, 19)]
    f_front = SetFamily.from_sets(n, 2, front)
    f_top_only = SetFamily.from_sets(n, 2, [(6, 7)] + [(2, x) for x in mrange])
    f_low = SetFamily.from_sets(n, 2, [(1, x) for x in mrange] + [(2, x) for x in mrange])
    families = (f_front, f_front, f_front, f_front, f_top_only, f_low)
    matching = SetFamily.from_sets(n, 1, [(x,) for x in mrange])
    params = Params(n=n, k=2, s=s)
    config = ThresholdConfig.from_params(params, t=6, gamma=0.0)
    return families, matching, config


class TestSwapInstance:
    def test_full_trace(self):
        families, matching, config = build_swap_instance()
        trace = attempt_rainbow_procedure(families, matching, config)
        assert trace.outcome == "rainbow-found"
        assert trace.order == (1, 2, 3, 4, 6, 5)
        assert trace.s1 == 4
        assert trace.u == 0
        assert trace.r == 1
        assert trace.w1 == ()
        assert set(trace.w2) == {5, 6}
        assert "R4" in trace.rules_applied
        assert "1'" in trace.rules_applied
        assert trace.assumptions_unmet == ()
        assert trace.m_values == (6.0, 6.0, 6.0, 6.0)
        assert trace.xi == 120

    def test_witness_sets(self):
        families, matching, config = build_swap_instance()
        trace = attempt_rainbow_procedure(families, matching, config)
        from emcverify.core import elements_from_mask

        got = [elements_from_mask(w) for w in trace.witness]
        assert got == [(5, 8), (4, 9), (3, 10), (2, 11), (6, 7), (1, 12)]

    def test_without_swap_rule_the_guard_reports(self):
        # forcing the one-set rule to fire regardless shows the same result,
        # while suppressing R4's candidate (empty top slices everywhere)
        # leaves the arrangement stuck with an explicit unmet assumption
        families, matching, config = build_swap_instance()
        stripped = (*families[:4], families[5], families[5])
        trace = arrange_families(stripped, matching, config)
        assert any("R4" in a for a in trace.assumptions_unmet)


class TestRandomSweep:
    def test_outcomes_and_certificates(self):
        rng = random.Random(107)
        outcomes = set()
        for trial in range(200):
            n = rng.choice([8, 9, 10])
            s = 2
            p = Params(n=n, k=2, s=s)
            layer = list(enumerate_ksets(n, 2))
            families = tuple(
                SetFamily.from_masks(n, 2, rng.sample(layer, rng.randint(0, 14)))
                for _ in range(s + 1)
            )
            matching = sample_matching(p, seed=trial)
            config = ThresholdConfig.from_params(p, t=p.t, gamma=0.0)
            trace = attempt_rainbow_procedure(families, matching, config)
            outcomes.add(trace.outcome)
            assert trace.outcome in (
                "rainbow-found",
                "step2-failed",
                "assumptions-unmet",
            )
            if trace.outcome != "assumptions-unmet":
                # r counts step-1/1' positions: all of W1, or the single 1' pick
                if trace.w1:
                    assert trace.r == len(trace.w1)
                else:
                    assert trace.r in (0, 1)
            if trace.outcome == "step2-failed":
                i = trace.failed_index
                assert trace.m_values[i - 1] <= s + 2 - trace.r - i
            if trace.outcome == "rainbow-found":
                acc = 0
                for oi, w in enumerate(trace.witness):
                    assert w in families[oi]
                    assert not (acc & w)
                    acc |= w
                assert find_rainbow(families).complete

    def test_arrange_never_fails(self):
        rng = random.Random(109)
        for trial in range(60):
            p = Params(n=9, k=2, s=2)
            layer = list(enumerate_ksets(9, 2))
            families = tuple(
                SetFamily.from_masks(9, 2, rng.sample(layer, rng.randint(0, 12)))
                for _ in range(3)
            )
            matching = sample_matching(p, seed=1000 + trial)
            trace = arrange_families(families, matching)
            assert trace.outcome == "arranged"
            assert sorted(trace.order) == [1, 2, 3]
            assert sorted(trace.w1 + trace.w2) == list(
                range(trace.s1 + 1, trace.s + 2)
            )
            assert trace.xi == xi_statistic(
                tuple(families[i - 1] for i in trace.order), matching, trace.s1
            )


FROZEN_SCALE = 2_000_000


class TestAudit:
    def test_frozen_small_report(self):
        rep = audit_inequalities(11, 2, checks=["t-floor"])
        assert (rep.n, rep.n_prime, rep.t) == (196, 184, 92)
        assert rep.all_passed
        assert [c.name for c in rep.checks] == ["t-floor"]

    def test_t_floor_across_grid(self):
        for s in (11, 17, 37, 100):
            for k in (2, 3, 5):
                assert audit_inequalities(s, k, checks=["t-floor"]).all_passed

    @pytest.mark.parametrize("s", [10**154, 10**200])
    def test_margins_past_the_double_range(self, s):
        # s*t has no double here, so both sides print as exact integers
        lhs = {c.name: c.lhs for c in audit_inequalities(s, 3).checks}
        assert int(lhs["slice-growth"]) > 10**308
        if s == 10**200:
            assert int(lhs["slice-indexed"].removeprefix("min margin ")) > 10**308
        assert audit_inequalities(s, 3).all_passed

    def test_margins_keep_double_text_where_it_exists(self):
        lhs = {c.name: c.lhs for c in audit_inequalities(FROZEN_SCALE, 2).checks}
        assert lhs["slice-growth"] == "28095984962687.53"
        assert lhs["slice-indexed"] == "min margin 6.08128e+11"

    def test_gamma_past_the_double_range_refused(self):
        with pytest.raises(ShapeError, match="gamma_threshold: t ln s passes the largest double"):
            audit_inequalities(10**400, 3)

    def test_gamma_margin_threshold(self):
        assert audit_inequalities(FROZEN_SCALE, 2, checks=["gamma-margin"]).all_passed
        assert not audit_inequalities(1_000_000, 2, checks=["gamma-margin"]).all_passed

    def test_union_bound(self):
        for s in (21, 50, 1000, 10**6):
            assert audit_inequalities(s, 2, checks=["union-bound"]).all_passed

    def test_union_bound_integer_form(self):
        # the audited inequality squares to an exact integer comparison
        for s in range(21, 201):
            assert 4 * (s + 1) ** 4 < s**5
        for s in (25, 100, 400):
            float_form = 2 * (s + 1) ** 2 * s**-12.5 < s**-10.0
            int_form = 4 * (s + 1) ** 4 < s**5
            assert float_form == int_form

    def test_gap_checks_from_fifty(self):
        for s in (50, 75, 100):
            for k in (2, 3):
                rep = audit_inequalities(s, k, checks=["gap-ratio", "gap-tail"])
                assert rep.all_passed, rep.failing()

    def test_gap_ratio_bound_is_certified(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            e = Fraction(decimal.Decimal(1).exp())
        for s in (2 * 10**6, 5 * 10**7):
            for k in range(1, 6):
                (check,) = audit_inequalities(s, k, checks=["gap-ratio"]).checks
                assert check.passed
                scale = Fraction(k * 3 * (s + 1), 4 * scaled_params(s, k).n)
                assert float(check.rhs) == float(e * scale)
        # the double nearest e gave the last digit one lower here
        scale = Fraction(2 * 3 * (2 * 10**6 + 1), 4 * scaled_params(2 * 10**6, 2).n)
        assert float(Fraction(math.e) * scale) < float(e * scale)

    def test_gap_ratio_refines_an_undecided_bracket(self, monkeypatch):
        real = engine.e_enclosures

        def wide_first():
            yield Fraction(2), Fraction(3)  # e * k*s'/n <= 1/4 is open on [2, 3]
            yield from real()

        want = [audit_inequalities(s, 2, checks=["gap-ratio"]).checks for s in (10, 60, 2 * 10**6)]
        monkeypatch.setattr(engine, "e_enclosures", wide_first)
        got = [audit_inequalities(s, 2, checks=["gap-ratio"]).checks for s in (10, 60, 2 * 10**6)]
        assert got == want

    def test_full_audit_at_scale(self):
        for k in (2, 3):
            rep = audit_inequalities(FROZEN_SCALE, k)
            assert [c.name for c in rep.checks] == list(CHECK_NAMES)
            assert rep.all_passed, rep.failing()

    def test_full_audit_at_1e9(self):
        rep = audit_inequalities(10**9, 2)
        assert [c.name for c in rep.checks] == list(CHECK_NAMES)
        assert rep.all_passed, rep.failing()

    def test_failing_names_at_small_s(self):
        rep = audit_inequalities(50, 2)
        assert not rep.all_passed
        assert "gamma-margin" in rep.failing()
        assert "gap-ratio" not in rep.failing()

    def test_unknown_check(self):
        with pytest.raises(ShapeError):
            audit_inequalities(100, 2, checks=["gamma-margin", "nope"])

    def test_ranges_override(self):
        s = FROZEN_SCALE
        rep = audit_inequalities(s, 2, checks=["slice-indexed"], ranges={"j": ((s + 1) // 6, (s + 1) // 6 + 50)})
        assert rep.all_passed
        rep = audit_inequalities(s, 2, checks=["xi-final"], ranges={"r": (1, 3)})
        assert rep.all_passed

    def test_scan_down_finds_first_failure(self):
        result = audit_scan_down(FROZEN_SCALE, 2, checks=["gamma-margin"])
        assert result["start_s"] == FROZEN_SCALE
        assert result["first_failing_s"] == 1_000_000
        assert result["path"][0]["all_passed"] is True
        assert result["path"][-1]["all_passed"] is False
        assert result["path"][-1]["failing"] == ["gamma-margin"]

    def test_scan_down_factor_validation(self):
        with pytest.raises(ShapeError):
            audit_scan_down(100, 2, factor=1)


def _exhaustive_chains(rep, ranges):
    """Verdicts of the three integer-quantified chains, evaluated at every value."""
    s, t, gf = rep.s, rep.t, Fraction(rep.gamma)
    sp1, st = s + 1, s * rep.t
    out = {}

    j_lo, j_hi = ranges.get("j", (-(-sp1 // 6), sp1))
    ok = t >= 1 and gf + 1 < Fraction(sp1, 11)
    margins = []
    for j in range(j_lo, j_hi + 1):
        a = (3 * s + 3 + j) * (j + 1 + gf) + (s - j) * t
        b = st - j * t + (3 * s + j) * j + (3 * s + 3 + 4 * j) * (1 + gf)
        c = st - Fraction(j * t, 3) + (3 * s + 3 + 4 * j) * (1 + gf)
        ok = ok and 3 * (3 * s + j) <= 2 * t and a <= b <= c < st and b - a == 3 * j * gf
        ok = ok and Fraction(j * t, 3 * (3 * s + 3 + 4 * j)) > Fraction(sp1, 11)
        margins.append(float(st - c))
    out["slice-indexed"] = (ok, f"min margin {min(margins):.6g}")

    m_lo, m_hi = ranges.get("m", (1, sp1))
    ok = Fraction(sp1, 6) + 2 * gf < Fraction(sp1, 3) and t >= 4 * s + 4
    for m in range(m_lo, m_hi + 1):
        direct = (4 * s + 4 - m) * (sp1 - m) + (m - 1) * t
        ok = ok and direct == st - (sp1 - m) * (t - 4 * s - 4 + m)
        ok = ok and m * (sp1 - m) >= 0
    out["xi-per-family"] = (ok, None)

    # Every (r, R, s1) of the good-event chain, not only its corners.
    r_lo, r_hi = ranges.get("r", (1, max(1, sp1 // 6)))
    d = t - 5 * s - 5
    half = Fraction(sp1, 2)
    ok = d >= 2 * sp1 + 2
    for r in range(r_lo, r_hi + 1):
        ok = ok and (4 * sp1 - 6 * r) - (sp1 - 6 * r + 6) + 6 - 3 * sp1 >= 0
        for big_r in range(1, max(1, -(-sp1 // 6) - r) + 1):
            for s1 in range(max(big_r, -(-2 * sp1 // 3) - r), sp1 + 1):
                val1 = (big_r - 1) * (st + sp1**2) + (s1 - big_r + 1) * (st - (big_r + r - 1) * d)
                val3 = s1 * st + (big_r - 1) * sp1**2 - half * (big_r + r - 1) * d
                val4 = s1 * st - (big_r - 1) * half * (d - 2 * sp1) - r * half * d
                val5 = s1 * st - (big_r + r - 1) * sp1
                ok = ok and s1 - big_r + 1 >= half and val1 <= val3 == val4 <= val5 <= s1 * st - sp1
    out["xi-final"] = (ok, None)
    return out


EXHAUSTIVE_CHECKS = ["slice-indexed", "xi-per-family", "xi-final"]


class TestAuditEndpointsMatchExhaustive:
    """The audit checks quantified chains at range endpoints only; at desk
    scale every value of the range is cheap to check directly."""

    def _compare(self, s, k, ranges):
        rep = audit_inequalities(s, k, checks=EXHAUSTIVE_CHECKS, ranges=ranges)
        oracle = _exhaustive_chains(rep, ranges)
        for check in rep.checks:
            passed, lhs = oracle[check.name]
            assert check.passed == passed, (s, k, ranges, check.name)
            if lhs is not None:
                assert check.lhs == lhs, (s, k, ranges, check.name)
        return {c.name: c.passed for c in rep.checks}

    # With the true gamma = 10 sqrt(t ln s) the gamma-dependent guards fail
    # at every desk-scale s, so a small gamma is also used to let the
    # quantified parts decide the verdict.
    @pytest.mark.parametrize("gamma", [None, 0.5])
    def test_default_ranges(self, monkeypatch, gamma):
        if gamma is not None:
            monkeypatch.setattr(engine, "gamma_threshold", lambda t, s: gamma)
        for s in range(2, 60):
            for k in (2, 3):
                self._compare(s, k, {})

    def test_failing_overrides(self, monkeypatch):
        monkeypatch.setattr(engine, "gamma_threshold", lambda t, s: 0.5)
        for s in (20, 40, 59):
            sp1 = s + 1
            for k in (2, 3):
                assert all(self._compare(s, k, {}).values())
                for name, ranges in (
                    ("slice-indexed", {"j": (-2, sp1)}),
                    ("slice-indexed", {"j": (-(sp1 // 2), sp1 // 6)}),
                    ("slice-indexed", {"j": (-(3 * sp1) // 4, sp1)}),
                    ("xi-per-family", {"m": (1, sp1 + 1)}),
                    ("xi-per-family", {"m": (-1, sp1 + 3)}),
                ):
                    assert not self._compare(s, k, ranges)[name], (s, k, ranges)
