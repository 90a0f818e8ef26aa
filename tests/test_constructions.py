import itertools
import math
from fractions import Fraction

import pytest

from conftest import brute_classic_max, brute_rainbow_max_min, fraction_gap_bound, ranked_tuple_scan
from emcverify import constructions
from emcverify.constructions import (
    _ranked_traces,
    _trace_walk,
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
from emcverify.matchings import find_rainbow, matching_number
from emcverify.transforms import SHIFTED_ENUMERATION_GUARD


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
    @pytest.mark.parametrize("n, s", [(0, 0), (3, 2), (12, 11)])
    def test_k_zero_refused(self, n, s):
        # the classic floor fails at k = 0: s + 1 copies of the empty set form
        # a rainbow matching, though the family {empty set} has nu = 1
        with pytest.raises(ShapeError, match="k must be >= 1, got 0"):
            rainbow_max_min_size(n, 0, s)

    def test_rows_under_the_guard_still_decided(self):
        # the 32 shifted families on [6] decide (k, s) = (2, 2) at every n
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
        decided = refused = 0
        for n, k, s in _ORACLE_GRID:
            if k == 0:
                with pytest.raises(ShapeError, match="k must be >= 1"):
                    rainbow_max_min_size(n, k, s)
                refused += 1
                continue
            want = brute_rainbow_max_min(n, k, s)
            if want is not None:  # at most 10^6 tuples
                assert rainbow_max_min_size(n, k, s) == want, (n, k, s)
                decided += 1
        assert (decided, refused) == (288, 91)  # of the 420 points

    def test_rainbow_equals_the_ranked_tuple_scan(self):
        # the scan of every tuple of ranked traces, wherever it is cheap: at
        # most 20,000 (s+1)-tuples of the traces on [(s+1)k]
        decided = 0
        for k, s in itertools.product(range(1, 4), range(1, 8)):
            if binomial((s + 1) * k, k) > SHIFTED_ENUMERATION_GUARD:
                continue
            if binomial(len(_trace_walk(k, s)) + s, s + 1) > 20_000:
                continue
            for n in range((s + 1) * k, 61):
                want = ranked_tuple_scan(_ranked_traces(n, k, s), s)
                assert rainbow_max_min_size(n, k, s) == want, (n, k, s)
                decided += 1
        assert decided == 559

    @pytest.mark.parametrize("n, k, s", [(7, 1, 5), (10, 2, 2), (9, 2, 3), (9, 3, 1)])
    def test_every_tuple_of_minimal_traces_is_tried(self, monkeypatch, n, k, s):
        # every row the oracles reach equals the floor, so they cannot see a scan
        # that tries too little: the spy checks that each trace above the floor
        # meets every nondecreasing s-tuple of the minimal traces ranked up to it
        tried = set()

        def spy(families):
            tried.add(tuple(sorted(f.members for f in families)))
            return find_rainbow(families)

        monkeypatch.setattr(constructions, "find_rainbow", spy)
        floor = classic_max_bounded_nu(n, k, s)
        assert rainbow_max_min_size(n, k, s) == floor
        above = [t for size, t in _ranked_traces(n, k, s) if size > floor]
        assert above
        for i, trace in enumerate(above):
            up_to = [set(t.members) for t in above[:i + 1]]
            minimal = [t for t, m in zip(above, up_to) if not any(u < m for u in up_to)]
            for rest in itertools.combinations_with_replacement(minimal, s):
                assert tuple(sorted(f.members for f in (*rest, trace))) in tried, (n, k, s, i)

    def test_strict_inclusion_of_traces_means_smaller_closures(self):
        # why the minimal traces suffice: a superset never ranks after its subset
        walked = [(k, s) for k in range(1, 4) for s in range(1, 36)
                  if binomial((s + 1) * k, k) <= SHIFTED_ENUMERATION_GUARD]
        assert len(walked) == 35 + 3 + 1
        for k, s in walked:
            m = (s + 1) * k
            for n in {m, m + 1, m + 7, 60}:
                ranked = [(size, set(t.members)) for size, t in _ranked_traces(n, k, s)]
                for (size, t), (size2, t2) in itertools.product(ranked, repeat=2):
                    if t < t2:
                        assert size < size2, (n, k, s)

    @pytest.mark.parametrize("k, s", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)])
    def test_conjectured_value_up_to_n_60(self, k, s):
        for n in range((s + 1) * k, 61):
            p = Params(n, k, s)
            want = max(size_extremal(p, "A"), size_extremal(p, "B"))
            assert classic_max_bounded_nu(n, k, s) == want, n
            assert rainbow_max_min_size(n, k, s) == want, n
