import itertools
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import random_family
from emcverify import densities
from emcverify.constructions import build_extremal, build_gap_set
from emcverify.core import (
    Params,
    SetFamily,
    ShapeError,
    binomial,
    elements_from_mask,
    enumerate_ksets,
    mask_from_elements,
)
from emcverify.densities import (
    alpha_profile,
    beta_parameter,
    condition_count,
    decompose,
    default_thresholds,
    ell_condition,
    local_lym_ratio,
    meets_thresholds,
    random_condition_family,
    sampled_slacks,
    slice_family,
    slice_partition,
    theorem3_slack,
    verify_lemma4,
    verify_theorem3,
)
from emcverify.matchings import find_rainbow
from emcverify.transforms import enumerate_shifted_families, lower_shadow


def fam(n, k, *sets):
    return SetFamily.from_sets(n, k, sets)


class TestDecompose:
    def test_example(self):
        f = fam(6, 2, (1, 2), (1, 3), (3, 4))
        classes = decompose(f, [1, 2])
        # every subset of Y (up to size k) is a key, even when its class is empty
        assert set(classes) == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
        }
        assert classes[frozenset({1, 2})].members == (0,)
        assert classes[frozenset({1})].as_sets() == [(3,)]
        assert classes[frozenset({2})].members == ()
        assert classes[frozenset()].as_sets() == [(3, 4)]

    def test_empty_y_single_class(self):
        f = fam(5, 2, (1, 2), (4, 5))
        classes = decompose(f, [])
        assert set(classes) == {frozenset()}
        assert classes[frozenset()] == f

    def test_empty_family(self):
        classes = decompose(fam(5, 2), [1, 2])
        assert len(classes) == 4
        assert all(len(c) == 0 for c in classes.values())
        assert classes[frozenset({1})].k == 1

    def test_partition_reconstructs(self):
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randint(1, 10)
            k = rng.randint(0, n)
            f = random_family(rng, n, k, rng.randint(0, min(binomial(n, k), 30)))
            y = [e for e in range(1, n + 1) if rng.random() < 0.4]
            classes = decompose(f, y)
            assert sum(len(c) for c in classes.values()) == len(f)
            rebuilt = set()
            for key, cls in classes.items():
                assert cls.k == k - len(key)
                key_mask = mask_from_elements(sorted(key))
                for m in cls.members:
                    assert not (m & key_mask)
                    rebuilt.add(m | key_mask)
            assert rebuilt == set(f.members)

    def test_y_range_check(self):
        with pytest.raises(ShapeError):
            decompose(fam(5, 2, (1, 2)), [0, 1])

    def test_class_count_guard(self):
        huge = SetFamily(n=64, k=30, members=())
        with pytest.raises(ShapeError, match="classes"):
            decompose(huge, range(1, 41))


class TestSliceFamily:
    def test_matches_decompose(self):
        rng = random.Random(43)
        for _ in range(80):
            n = rng.randint(3, 9)
            k = rng.randint(1, 3)
            s = rng.randint(1, min(2, n - 2))
            f = random_family(rng, n, k, rng.randint(0, min(binomial(n, k), 25)))
            classes = decompose(f, range(1, s + 2))
            parts = slice_partition(f, s)
            assert len(parts) == s + 2
            for j in range(0, s + 2):
                key = frozenset() if j == 0 else frozenset({j})
                sl = slice_family(f, j, s)
                want = classes.get(key)
                if want is None:
                    assert len(sl) == 0
                else:
                    assert set(sl.members) == set(want.members)
                    assert parts[j] == want

    def test_bad_j(self):
        with pytest.raises(ShapeError):
            slice_family(fam(6, 2, (1, 2)), 4, s=1)

    def test_nested_slices_when_shifted(self):
        for n, k in ((6, 2), (6, 3), (5, 2)):
            for s in (1, 2):
                if n < s + 2:
                    continue
                for f in enumerate_shifted_families(n, k):
                    slices = [set(slice_family(f, j, s).members) for j in range(1, s + 2)]
                    for j in range(len(slices) - 1):
                        assert slices[j + 1] <= slices[j]


class TestAlphaProfile:
    def test_star_pair(self):
        a = build_extremal(Params(n=6, k=2, s=1), "A")
        prof = alpha_profile((a, a))
        assert prof.alpha == ((Fraction(1), Fraction(0)),) * 2
        assert prof.alpha_empty == (Fraction(0), Fraction(0))
        assert prof.value(1, 1) == 1
        assert prof.n_prime == 4

    def test_full_layer(self):
        full = SetFamily.from_masks(6, 2, enumerate_ksets(6, 2))
        prof = alpha_profile((full, full))
        assert all(v == 1 for row in prof.alpha for v in row)
        assert prof.alpha_empty == (Fraction(1), Fraction(1))

    def test_empty_families(self):
        e = fam(6, 2)
        prof = alpha_profile((e, e, e))
        assert all(v == 0 for row in prof.alpha for v in row)

    def test_tail_too_small(self):
        with pytest.raises(ShapeError):
            alpha_profile((fam(3, 3, (1, 2, 3)), fam(3, 3, (1, 2, 3))))


class TestBeta:
    def test_examples(self):
        assert beta_parameter(fam(5, 2, (1, 2))).value == 1
        bv = beta_parameter(fam(5, 2, (2, 4)))
        assert bv.value == Fraction(1, 2)
        assert bv.witness_ell == 2
        both = beta_parameter(fam(5, 2, (1, 2), (2, 4)))
        assert both.value == Fraction(1, 2)
        assert both.witness_member == mask_from_elements([2, 4])

    def test_empty_raises(self):
        with pytest.raises(ShapeError):
            beta_parameter(fam(5, 2))

    def test_definition_brute(self):
        rng = random.Random(47)
        for _ in range(150):
            n = rng.randint(1, 9)
            k = rng.randint(1, n)
            f = random_family(rng, n, k, rng.randint(1, min(binomial(n, k), 20)))
            want = min(
                max(
                    Fraction(sum(1 for e in s if e <= ell), ell)
                    for ell in range(1, n + 1)
                )
                for s in f.as_sets()
            )
            assert beta_parameter(f).value == want

    def test_sum_example(self):
        pair = (fam(5, 2, (1, 2)), fam(5, 2, (2, 4)))
        assert sum(beta_parameter(f).value for f in pair) == Fraction(3, 2)

    def test_sum_over_cross_dependent_shifted_pairs(self):
        # the rationale for the rearrangement cutoffs: whenever no disjoint
        # pair of representatives exists, the betas cannot both be small
        for n, k in ((5, 2), (6, 2), (6, 3)):
            fams = [f for f in enumerate_shifted_families(n, k) if len(f) > 0]
            for f1 in fams:
                for f2 in fams:
                    if find_rainbow((f1, f2)).complete:
                        continue
                    total = beta_parameter(f1).value + beta_parameter(f2).value
                    assert total > 1, (f1.as_sets(), f2.as_sets(), total)


class TestEllCondition:
    def test_examples(self):
        assert ell_condition(mask_from_elements([5, 10]), s=1)
        assert not ell_condition(mask_from_elements([6, 12]), s=1)
        assert ell_condition(mask_from_elements([1, 20]), s=5)

    def test_small_prefix_always_passes(self):
        # any member meeting [3(s+1)-1] passes at ell = 1
        for s in (1, 2, 3):
            cutoff = 3 * (s + 1) - 1
            assert ell_condition(mask_from_elements([cutoff, cutoff + 5]), s)

    def test_k_override(self):
        m = mask_from_elements([6, 12])
        assert ell_condition(m, s=1, k=2) == ell_condition(m, s=1)


class TestLemma4:
    def test_frozen_example(self):
        members = [c for c in itertools.combinations(range(1, 12), 2) if c[0] <= 5]
        f = SetFamily.from_sets(11, 2, members)
        assert len(f) == 40
        assert verify_lemma4(f, s=1) == (55, 40, True)

    def test_single_member(self):
        assert verify_lemma4(fam(5, 2, (1, 2)), s=1) == (10, 1, True)

    def test_empty(self):
        assert verify_lemma4(fam(5, 2), s=1) == (0, 0, True)

    def test_default_cutoffs_give_weighted_beta(self):
        # i / (alpha_i - i + 1) = 1/(3s+2) at every i, so Lemma 4 is Theorem 3 at depth 1
        for s in range(0, 8):
            for k in range(1, 7):
                n = 3 * (s + 1) * k
                beta, slack = theorem3_slack(fam(n, k), 1, tuple(default_thresholds(s, k)))
                assert (beta, slack) == (Fraction(1, 3 * s + 2), 0)

    def test_condition_violation_names_member(self):
        with pytest.raises(ShapeError, match=r"\[6, 12\]"):
            verify_lemma4(fam(12, 2, (6, 12)), s=1)

    def test_random_suite(self):
        rng = random.Random(53)
        for s, k in ((1, 2), (2, 2), (1, 3)):
            p = Params(n=3 * (s + 1) * k + 2, k=k, s=s)
            for _ in range(60):
                f = random_condition_family(p, rng.randint(1, 25), rng)
                lhs, rhs, ok = verify_lemma4(f, s)
                assert ok and lhs >= rhs


class TestSampledSlacks:
    @pytest.mark.parametrize("n, k, s, seed", [(10, 2, 1, 1), (12, 3, 1, 7), (9, 2, 0, 3)])
    def test_lemma4_slack_identity(self, n, k, s, seed):
        # at b = 1 with the default cut-offs beta = 1/(3s+2), and each slack over
        # beta is verify_lemma4's (3s+2)|shadow| - |F| on the same draws
        p = Params(n=n, k=k, s=s)
        beta, draws = sampled_slacks(p, 8, 30, seed)
        assert beta == Fraction(1, 3 * s + 2) and len(draws) == 8
        rng = random.Random(seed)
        cap = min(30, condition_count(p))
        for size, slack in draws:
            lhs, rhs, ok = verify_lemma4(random_condition_family(p, rng.randint(1, cap), rng), s)
            assert (size, slack / beta) == (rhs, lhs - rhs) and ok

    @pytest.mark.parametrize("trials, max_size, thresholds, message", [
        (5, 20, (11, 9), "thresholds must be strictly increasing"),
        (0, 0, (1, 4), "threshold alpha_2=1 is below 2"),  # thresholds first
        (5, 0, (11, 17), "got max_size=0, trials=5"),
        (0, 20, (11, 17), "got max_size=20, trials=0"),
    ])
    def test_bad_arguments_refused_first(self, trials, max_size, thresholds, message):
        with pytest.raises(ShapeError) as info:
            sampled_slacks(Params(n=11, k=3, s=1), trials, max_size, 4, 2, thresholds)
        assert message in str(info.value)

    def test_depth_b_draws(self):
        p, b, thresholds = Params(n=11, k=3, s=1), 2, (11, 17)
        beta, draws = sampled_slacks(p, 5, 20, 4, b, thresholds)
        rng = random.Random(4)
        cap = min(20, condition_count(p, b, thresholds))
        for size, slack in draws:
            f = random_condition_family(p, rng.randint(1, cap), rng, b, thresholds)
            assert (size, beta, slack) == (len(f), *theorem3_slack(f, b, thresholds))

    def test_draws_are_not_checked_again(self, monkeypatch):
        # the sampler draws only qualifying sets, so no member is re-tested
        p, b, thresholds = Params(n=11, k=3, s=1), 2, (11, 17)
        want = sampled_slacks(p, 5, 20, 4, b, thresholds)

        def refuse(*args):
            raise AssertionError("member re-checked")

        monkeypatch.setattr(densities, "meets_thresholds", refuse)
        assert sampled_slacks(p, 5, 20, 4, b, thresholds) == want
        # the public function keeps its check on members that can fail:
        # {9, 10, 11} meets neither |A ∩ [5]| >= 2 nor |A ∩ [8]| >= 3
        with pytest.raises(AssertionError):
            theorem3_slack(fam(11, 3, (9, 10, 11)), b, (5, 8))


class TestTheorem3:
    def test_frozen_example(self):
        f = fam(7, 2, (1, 7), (4, 5))
        beta, ok = verify_theorem3(f, b=1, thresholds=(2, 5))
        assert beta == Fraction(1, 2)
        assert ok

    def test_depth_zero_is_trivial(self):
        f = fam(7, 2, (1, 7), (4, 5))
        beta, ok = verify_theorem3(f, b=0, thresholds=(1, 2, 5))
        assert beta == 1 and ok

    def test_full_depth(self):
        f = fam(7, 2, (1, 2), (1, 3))
        beta, ok = verify_theorem3(f, b=2, thresholds=(4,))
        assert beta == Fraction(1, binomial(4, 2))
        assert ok

    def test_validation(self):
        f = fam(7, 2, (1, 2))
        with pytest.raises(ShapeError):
            verify_theorem3(f, b=3, thresholds=(4,))
        with pytest.raises(ShapeError):
            verify_theorem3(f, b=1, thresholds=(2,))
        with pytest.raises(ShapeError):
            verify_theorem3(f, b=1, thresholds=(5, 5))
        with pytest.raises(ShapeError, match="fails every threshold"):
            verify_theorem3(fam(9, 2, (8, 9)), b=1, thresholds=(2, 5))

    def test_bisected_scan_matches_full_scan(self):
        # theorem3_slack tests only members above 1 << alpha_k; a scan of every
        # member must fail exactly when it does, on the same first member
        rng = random.Random(67)
        raised = 0
        for _ in range(400):
            n = rng.randint(1, 16)
            k = rng.randint(1, min(5, n))
            f = random_family(rng, n, k, rng.randint(1, 30))
            b = rng.randint(0, k)
            cuts, lowest = [], b
            for i in range(b, k + 1):
                cuts.append(rng.randint(max(i, lowest), n + 1 - (k - i)))  # alpha_k >= n at times
                lowest = cuts[-1] + 1
            failing = [m for m in f.members
                       if not any(sum(e <= alpha for e in elements_from_mask(m)) >= i
                                  for i, alpha in enumerate(cuts, start=b))]
            if failing:
                raised += 1
                named = sorted(elements_from_mask(failing[0]))
                with pytest.raises(ShapeError, match=rf"member {re.escape(str(named))} fails"):
                    theorem3_slack(f, b, tuple(cuts))
            else:
                theorem3_slack(f, b, tuple(cuts))
        assert 50 < raised < 350  # both outcomes are exercised

    def test_threshold_below_index(self):
        # alpha_1 = 0 < 1: no member meets it, and C(0, 1) = 0 leaves beta undefined
        f = fam(7, 2, (1, 2))
        with pytest.raises(ShapeError, match="below 1"):
            verify_theorem3(f, 1, (0, 5))
        with pytest.raises(ShapeError, match="below 2"):
            verify_theorem3(f, 2, (1,))

    def test_default_thresholds_collapse_to_weighted_shadow(self):
        # with alpha_i = 3(s+1)i - 1 every ratio equals 1/(3s+2), so the
        # depth-1 bound coincides with the (3s+2)-weighted shadow bound
        rng = random.Random(59)
        for s, k in ((1, 2), (2, 2), (1, 3), (3, 3)):
            thresholds = tuple(3 * (s + 1) * i - 1 for i in range(1, k + 1))
            p = Params(n=3 * (s + 1) * k + 3, k=k, s=s)
            for _ in range(40):
                f = random_condition_family(p, rng.randint(1, 20), rng)
                beta, ok = verify_theorem3(f, b=1, thresholds=thresholds)
                assert beta == Fraction(1, 3 * s + 2)
                lhs, rhs, ok4 = verify_lemma4(f, s)
                assert ok and ok4


class TestLocalLym:
    def test_examples(self):
        assert local_lym_ratio(fam(5, 3, (1, 2, 3)))
        assert local_lym_ratio(fam(5, 2))

    def test_full_layer_equality(self):
        for n in (4, 5, 6):
            for k in range(1, n + 1):
                f = SetFamily.from_masks(n, k, enumerate_ksets(n, k))
                lhs = (n - k + 1) * len(lower_shadow(f, 1))
                assert lhs == k * len(f)
                assert local_lym_ratio(f)

    def test_ground_override(self):
        f = fam(4, 2, (1, 2), (3, 4))
        assert local_lym_ratio(f, ground_size=10)
        with pytest.raises(ShapeError):
            local_lym_ratio(f, ground_size=1)

    def test_always_true_random(self):
        rng = random.Random(61)
        for _ in range(250):
            n = rng.randint(1, 10)
            k = rng.randint(1, n)
            f = random_family(rng, n, k, rng.randint(0, min(binomial(n, k), 40)))
            assert local_lym_ratio(f)


class TestGapPeak:
    def test_dense_peak_is_reciprocal_step(self):
        for s in (3, 7, 11):
            step = 3 * (s + 1) // 4
            for k in (1, 2, 3):
                p = Params(n=step * k + 3, k=k, s=s)
                mask = build_gap_set(p, "dense")
                # beta of the one-member family {G} is G's prefix peak
                peak = beta_parameter(SetFamily.from_masks(p.n, k, [mask])).value
                assert peak == Fraction(1, step)

    def test_beta_of_gap_singleton(self):
        s = 3
        step = 3
        p = Params(n=10, k=2, s=s)
        mask = build_gap_set(p, "dense")
        single = SetFamily.from_masks(p.n, p.k, [mask])
        assert beta_parameter(single).value == Fraction(1, step)


class TestRandomConditionFamily:
    def test_members_pass_and_deterministic(self):
        p = Params(n=14, k=2, s=1)
        f1 = random_condition_family(p, 10, random.Random(5))
        f2 = random_condition_family(p, 10, random.Random(5))
        assert f1 == f2
        assert len(f1) == 10
        assert all(ell_condition(m, 1, 2) for m in f1.members)

    def test_impossible_size_raises(self):
        p = Params(n=5, k=2, s=1)
        with pytest.raises(ShapeError):
            random_condition_family(p, binomial(5, 2) + 1, random.Random(0))

    def test_uniform_over_a_cut_pool(self):
        # four cuts, each met first by some sets ({1, 6, 7, 8}, {2, 3, 6, 8},
        # {2, 4, 5, 8}, {2, 4, 6, 7}): 56 of the 70 4-subsets of [8] qualify
        p, b, thresholds = Params(n=8, k=4, s=1), 1, (1, 3, 5, 7)
        pool = {m for m in enumerate_ksets(8, 4) if meets_thresholds(m, b, thresholds)}
        assert condition_count(p, b, thresholds) == len(pool) == 56
        rng = random.Random(71)
        draws = 200 * len(pool)
        seen = Counter(
            random_condition_family(p, 1, rng, b, thresholds).members[0] for _ in range(draws)
        )
        assert set(seen) == pool
        df = len(pool) - 1
        chi2 = sum((seen[m] - 200) ** 2 / 200 for m in pool)
        assert chi2 < df + 5 * math.sqrt(2 * df)

    def test_single_qualifying_set_in_a_wide_ground(self):
        # only {1..5} has 5 elements in [5]; C(80, 5) sets are never scanned
        p = Params(n=80, k=5, s=1)
        assert condition_count(p, 5, (5,)) == 1
        f = random_condition_family(p, 1, random.Random(0), 5, (5,))
        assert f.as_sets() == [(1, 2, 3, 4, 5)]
        with pytest.raises(ShapeError, match="exceeds the 1 qualifying"):
            random_condition_family(p, 2, random.Random(0), 5, (5,))


class TestConditionCount:
    def test_counts_qualifying_ksets(self):
        # brute force over every shape with n <= 12, k <= 5, s <= 3 and b in
        # [0, k]: the default thresholds and random ones, some past n
        rng = random.Random(67)
        for n in range(1, 13):
            for k in range(1, min(n, 5) + 1):
                layer = list(enumerate_ksets(n, k))
                for s in range(4):
                    p = Params(n=n, k=k, s=s)
                    for b in range(k + 1):
                        cases = [(None, tuple(3 * (s + 1) * i - 1 for i in range(b, k + 1)))]
                        for _ in range(2):
                            drawn = tuple(rng.randint(-1, n + 3) for _ in range(k - b + 1))
                            cases.append((drawn, drawn))
                        for given, thresholds in cases:
                            pool = sum(1 for m in layer if meets_thresholds(m, b, thresholds))
                            assert condition_count(p, b, given) == pool, (n, k, s, b, thresholds)
        for n, k, s in ((10, 1, 1), (9, 2, 1), (12, 3, 2), (8, 2, 3)):
            pool = sum(1 for m in enumerate_ksets(n, k) if ell_condition(m, s, k))
            assert condition_count(Params(n=n, k=k, s=s)) == pool
        # (10, 1, 1): only {1}, ..., {5} meet the condition
        assert condition_count(Params(n=10, k=1, s=1)) == 5

    def test_default_thresholds(self):
        assert tuple(default_thresholds(1, 3)) == (5, 11, 17)
        assert tuple(default_thresholds(0, 2, 0)) == (-1, 2, 5)
        assert tuple(default_thresholds(2, 1, 2)) == ()

    def test_large_k_counts(self):
        # no 600-subset of [2000] keeps |A ∩ [6i - 1]| < i up to i = 333, and
        # [5000] is the only 5000-subset; both tables keep no avoid entries
        start = time.perf_counter()
        assert condition_count(Params(n=2000, k=600, s=1)) == binomial(2000, 600)
        assert condition_count(Params(n=5000, k=5000, s=0)) == 1
        assert time.perf_counter() - start < 1.0

    def test_explicit_thresholds(self):
        p = Params(n=9, k=2, s=1)
        assert condition_count(p, 2, (3,)) == 3  # the 2-subsets of [3]
        assert condition_count(p, 0, (0, 4, 5)) == binomial(9, 2)  # i = 0 always holds
        assert condition_count(p, 1, (20, 30)) == binomial(9, 2)  # cuts past n clamp to n

    def test_capped_size_is_drawable(self):
        p = Params(n=10, k=1, s=1)
        size = condition_count(p)
        f = random_condition_family(p, size, random.Random(3))
        assert len(f) == size == 5
