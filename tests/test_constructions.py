import math
import time
from fractions import Fraction

import pytest

from conftest import brute_classic_max, brute_rainbow_max_min, fraction_gap_bound
from emcverify.constructions import (
    build_extremal,
    build_gap_set,
    classic_max_bounded_nu,
    gap_bound,
    lemma3_bound,
    rainbow_max_min_size,
    size_A_layered,
    size_extremal,
)
from emcverify.core import Params, ShapeError, binomial, elements_from_mask
from emcverify.matchings import matching_number


class TestSizes:
    def test_examples(self):
        assert size_extremal(Params(n=6, k=2, s=1), "A") == 5
        assert size_extremal(Params(n=6, k=2, s=2), "A") == 9
        assert size_extremal(Params(n=6, k=2, s=1), "B") == 3
        assert size_extremal(Params(n=12, k=2, s=2), "B") == binomial(5, 2)

    def test_prefix_swallows_ground(self):
        # s >= n: every k-set meets [s], so A is the whole layer
        assert size_extremal(Params(n=4, k=2, s=7), "A") == binomial(4, 2)
        assert len(build_extremal(Params(n=4, k=2, s=7), "A")) == binomial(4, 2)

    def test_bad_kind(self):
        with pytest.raises(ShapeError):
            size_extremal(Params(n=6, k=2, s=1), "C")

    def test_b_needs_room(self):
        with pytest.raises(ShapeError):
            size_extremal(Params(n=4, k=3, s=2), "B")  # (s+1)k-1 = 8 > 4

    def test_layered_equals_closed_form(self):
        for n in range(1, 31):
            for k in range(1, min(5, n) + 1):
                for s in range(0, 11):
                    if s > 0 and n < s + k:
                        continue
                    p = Params(n=n, k=k, s=s)
                    assert size_A_layered(p) == size_extremal(p, "A")

    def test_layered_guard(self):
        with pytest.raises(ShapeError):
            size_A_layered(Params(n=4, k=3, s=2))

    def test_first_kind_dominates_at_scale(self):
        # strictly above the packed construction once n >= (k+1)(s+1)
        for k in range(2, 5):
            for s in range(1, 7):
                for n in range((k + 1) * (s + 1), 61):
                    p = Params(n=n, k=k, s=s)
                    assert size_extremal(p, "A") > size_extremal(p, "B")

    def test_boundary_tie(self):
        p = Params(n=4, k=2, s=1)
        assert size_extremal(p, "A") == size_extremal(p, "B") == 3


class TestBuild:
    def test_kind_a_members(self):
        fam = build_extremal(Params(n=6, k=2, s=1), "A")
        assert fam.as_sets() == [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)]

    def test_kind_b_members(self):
        fam = build_extremal(Params(n=6, k=2, s=1), "B")
        assert fam.as_sets() == [(1, 2), (1, 3), (2, 3)]

    def test_sizes_match(self):
        for n in range(4, 12):
            for k in (2, 3):
                for s in (1, 2):
                    if n < s + k or n < (s + 1) * k - 1:
                        continue
                    p = Params(n=n, k=k, s=s)
                    for kind in ("A", "B"):
                        assert len(build_extremal(p, kind)) == size_extremal(p, kind)

    def test_matching_number_is_s(self):
        for n in range(4, 13):
            for k in (2, 3):
                for s in (1, 2, 3):
                    if n < (s + 1) * k:
                        continue
                    p = Params(n=n, k=k, s=s)
                    assert matching_number(build_extremal(p, "A")) == s
                    assert matching_number(build_extremal(p, "B")) == s


class TestGapSets:
    def test_dense_example(self):
        mask = build_gap_set(Params(n=10, k=2, s=3), "dense")
        assert elements_from_mask(mask) == (3, 6)

    def test_sparse_examples(self):
        mask = build_gap_set(Params(n=12, k=2, s=1), "sparse")
        assert elements_from_mask(mask) == (6, 12)
        mask = build_gap_set(Params(n=6, k=1, s=1), "sparse")
        assert elements_from_mask(mask) == (6,)

    def test_dense_integrality(self):
        with pytest.raises(ShapeError, match="3\\(s\\+1\\)/4"):
            build_gap_set(Params(n=20, k=2, s=2), "dense")

    def test_too_large_for_ground(self):
        with pytest.raises(ShapeError):
            build_gap_set(Params(n=11, k=2, s=1), "sparse")

    def test_bad_variant(self):
        with pytest.raises(ShapeError):
            build_gap_set(Params(n=12, k=2, s=1), "medium")

    def test_progression_shape(self):
        for s in (3, 7, 11):
            step = 3 * (s + 1) // 4
            for k in (1, 2, 3):
                mask = build_gap_set(Params(n=step * k + 5, k=k, s=s), "dense")
                assert elements_from_mask(mask) == tuple(step * p for p in range(1, k + 1))


class TestCoverBound:
    def test_frozen_example(self):
        total, ratios = lemma3_bound(Params(n=66, k=2, s=3))
        assert total == 138
        assert ratios == (Fraction(10, 128),)
        assert ratios[0] <= Fraction(math.e) * 2 * 3 / 66

    def test_single_term_at_k1(self):
        total, ratios = lemma3_bound(Params(n=66, k=1, s=3))
        assert total == binomial(2, 1)  # C(s'-1, 1) with s' = 3
        assert ratios == ()

    def test_ratio_bound_at_scale(self):
        # every consecutive term ratio stays below e*k*s'/n on the audit grid
        for s in (3, 7, 11, 19):
            step = 3 * (s + 1) // 4
            for k in (2, 3, 5):
                n = math.ceil(3 * math.e * (s + 1) * k)
                total, ratios = lemma3_bound(Params(n=n, k=k, s=s))
                cap = Fraction(math.e) * k * step / n
                assert all(r <= cap for r in ratios)
                assert total >= 1

    def test_needs_room(self):
        with pytest.raises(ShapeError):
            lemma3_bound(Params(n=6, k=2, s=3))

    @pytest.mark.parametrize("k", range(1, 31))
    def test_integer_numerators_equal_the_fraction_terms(self, k):
        # s' = 3(s+1)/4 for every residue of s, so integral and rational
        # steps, negative terms at s' < 1, zero terms and n at the edge
        for s in (0, 1, 2, 3, 99, 2 * 10**6):
            step = Fraction(3 * (s + 1), 4)
            for n in {k, math.ceil(step * k) + 1, 3 * (s + 1) * k + 5, 10**6}:
                assert gap_bound(n, k, step) == fraction_gap_bound(n, k, step), (n, k, s)
        total, ratios = lemma3_bound(Params(n=10**6, k=k, s=99))
        oracle_total, oracle_ratios = fraction_gap_bound(10**6, k, 75)
        assert (total, ratios) == (int(oracle_total), oracle_ratios)
        assert all(type(r) is Fraction for r in ratios)

    def test_convexity_of_tail_counts(self):
        # moving one endpoint of the window outward never shrinks the two-term sum
        for s in (3, 7):
            step = 3 * (s + 1) // 4
            for k in (2, 3):
                n = 3 * (s + 1) * k + 4
                for i in range(0, n - step - k):
                    lhs = binomial(n - step - i - 1, k - 1) + binomial(n - step + i + 1, k - 1)
                    rhs = binomial(n - step - i, k - 1) + binomial(n - step + i, k - 1)
                    assert lhs >= rhs


class TestRainbowGuard:
    @pytest.mark.parametrize("n, k, s, tuples", [(8, 2, 3, 11_716_640), (12, 1, 11, 2_704_156)])
    def test_refused_before_the_tuple_scan(self, n, k, s, tuples):
        # C(F + s, s + 1) nondecreasing (s+1)-tuples of the F shifted families
        # on [(s+1)k]: 128 on [8] for k = 2, 13 on [12] for k = 1
        start = time.perf_counter()
        with pytest.raises(ShapeError, match=f"{tuples} tuples of .* exceed guard 1000000"):
            rainbow_max_min_size(n, k, s)
        assert time.perf_counter() - start < 1.0

    def test_rows_under_the_guard_still_decided(self):
        # 32 shifted families on [6] give C(34, 3) = 5,984 tuples at every n; the
        # families on [9] gave 2,829,056, so (9, 2, 2) was refused before the traces
        for n, want in ((6, 10), (9, 15)):
            p = Params(n, 2, 2)
            assert rainbow_max_min_size(n, 2, 2) == max(size_extremal(p, "A"),
                                                         size_extremal(p, "B")) == want


# every (n, k, s) where the walk over shifted families on [n] runs: C(n, k) <= 36
_ORACLE_GRID = [(n, k, s) for n in range(13) for k in range(n + 1) if binomial(n, k) <= 36
                for s in range(7)]


class TestTraceMaxima:
    def test_classic_equals_the_walk_on_n(self):
        for n, k, s in _ORACLE_GRID:
            assert classic_max_bounded_nu(n, k, s) == brute_classic_max(n, k, s), (n, k, s)

    def test_rainbow_equals_the_walk_on_n(self):
        decided = 0
        for n, k, s in _ORACLE_GRID:
            want = brute_rainbow_max_min(n, k, s)
            if want is not None:  # at most 10^6 tuples
                assert rainbow_max_min_size(n, k, s) == want, (n, k, s)
                decided += 1
        assert decided == 379  # of the 420 points

    @pytest.mark.parametrize("k, s", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)])
    def test_conjectured_value_up_to_n_60(self, k, s):
        for n in range((s + 1) * k, 61):
            p = Params(n, k, s)
            want = max(size_extremal(p, "A"), size_extremal(p, "B"))
            assert classic_max_bounded_nu(n, k, s) == want, n
            if (k, s) != (2, 3):  # its 11,716,640 tuples of traces exceed the guard
                assert rainbow_max_min_size(n, k, s) == want, n
