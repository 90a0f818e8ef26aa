import random
import time

import pytest

from conftest import brute_lower_shadow, brute_upper_shadow, random_family
from emcverify.core import SetFamily, ShapeError, binomial, enumerate_ksets
from emcverify.matchings import matching_number
from emcverify.transforms import (
    bt_check,
    enumerate_shifted_families,
    is_shifted,
    kk_min_shadow_size,
    lower_shadow,
    shift_closure,
    shift_ij,
    upper_shadow,
)


def fam(n, k, *sets):
    return SetFamily.from_sets(n, k, sets)


class TestShiftIJ:
    def test_free_move(self):
        assert shift_ij(fam(3, 2, (2, 3)), 1, 2) == fam(3, 2, (1, 3))

    def test_blocked_move(self):
        before = fam(3, 2, (1, 3), (2, 3))
        assert shift_ij(before, 1, 2) == before

    def test_member_without_j_untouched(self):
        assert shift_ij(fam(4, 2, (1, 2)), 3, 4) == fam(4, 2, (1, 2))

    def test_member_with_both_untouched(self):
        assert shift_ij(fam(4, 2, (1, 2)), 1, 2) == fam(4, 2, (1, 2))

    def test_bad_pair(self):
        f = fam(4, 2, (1, 2))
        with pytest.raises(ShapeError):
            shift_ij(f, 2, 2)
        with pytest.raises(ShapeError):
            shift_ij(f, 3, 2)
        with pytest.raises(ShapeError):
            shift_ij(f, 1, 5)

    def test_cardinality_preserved_random(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(2, 7)
            k = rng.randint(1, n)
            f = random_family(rng, n, k, rng.randint(0, binomial(n, k)))
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            assert len(shift_ij(f, i, j)) == len(f)

    def test_matching_number_never_increases(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(3, 7)
            k = rng.randint(1, 3)
            f = random_family(rng, n, k, rng.randint(1, binomial(n, k)))
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    assert matching_number(shift_ij(f, i, j)) <= matching_number(f)


class TestShiftClosure:
    def test_single_far_member(self):
        rep = shift_closure(fam(5, 2, (4, 5)))
        assert rep.result == fam(5, 2, (1, 2))
        assert rep.applied >= 1

    def test_already_shifted(self):
        f = fam(4, 2, (1, 2), (1, 3))
        rep = shift_closure(f)
        assert rep.result == f
        assert rep.applied == 0
        assert rep.rounds == 1

    def test_wide_ground_sweeps_only_below_top_element(self):
        started = time.perf_counter()
        rep = shift_closure(fam(10**6, 2, (4, 5), (2, 6)))
        assert time.perf_counter() - started < 1.0
        assert rep.result == fam(10**6, 2, (1, 2), (1, 3))

    def test_full_layer_fixed(self):
        f = SetFamily.from_masks(4, 2, enumerate_ksets(4, 2))
        assert shift_closure(f).result == f

    def test_equals_loop_of_shift_ij(self):
        # reference: rebuild the family with shift_ij for every pair, in
        # lexicographic order, until a round moves nothing
        rng = random.Random(23)
        for trial in range(300):
            n = rng.randint(1, 8)
            k = (0, n)[trial % 2] if trial % 10 < 2 else rng.randint(1, n)
            size = 0 if trial % 10 == 2 else rng.randint(0, min(binomial(n, k), 40))
            f = random_family(rng, n, k, size)
            current, rounds, applied = f, 0, 0
            while True:
                rounds += 1
                moved = 0
                for i in range(1, n):
                    for j in range(i + 1, n + 1):
                        nxt = shift_ij(current, i, j)
                        moved += len(set(current.members) - set(nxt.members))
                        current = nxt
                applied += moved
                if moved == 0:
                    break
            rep = shift_closure(f)
            assert (rep.rounds, rep.applied, rep.result) == (rounds, applied, current)

    def test_result_is_shifted_and_same_size(self):
        rng = random.Random(3)
        for _ in range(120):
            n = rng.randint(2, 7)
            k = rng.randint(1, n)
            f = random_family(rng, n, k, rng.randint(0, binomial(n, k)))
            rep = shift_closure(f)
            assert len(rep.result) == len(f)
            assert is_shifted(rep.result)
            again = shift_closure(rep.result)
            assert again.result == rep.result and again.applied == 0


class TestIsShifted:
    def test_examples(self):
        assert is_shifted(fam(4, 2))  # empty
        assert is_shifted(fam(4, 2, (1, 2), (1, 3)))
        assert not is_shifted(fam(4, 2, (1, 3)))  # missing {1,2}
        assert is_shifted(SetFamily.from_masks(5, 3, enumerate_ksets(5, 3)))

    def test_agrees_with_fixpoint_definition(self):
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(2, 8)
            k = rng.randint(0, n)
            f = random_family(rng, n, k, rng.randint(0, binomial(n, k)))
            fixed = all(
                shift_ij(f, i, j) == f
                for i in range(1, n)
                for j in range(i + 1, n + 1)
            )
            assert is_shifted(f) == fixed


class TestShadows:
    def test_lower_examples(self):
        f = fam(4, 3, (1, 2, 3))
        assert lower_shadow(f, 1) == fam(4, 2, (1, 2), (1, 3), (2, 3))
        assert lower_shadow(f, 0) == f
        assert lower_shadow(f, 3) == SetFamily.from_masks(4, 0, [0])
        assert len(lower_shadow(fam(4, 2), 1)) == 0

    def test_upper_examples(self):
        f = fam(4, 2, (1, 2))
        assert upper_shadow(f, 3) == fam(4, 3, (1, 2, 3), (1, 2, 4))
        assert upper_shadow(f, 2) == f
        assert upper_shadow(f, 4) == fam(4, 4, (1, 2, 3, 4))

    def test_depth_validation(self):
        f = fam(4, 2, (1, 2))
        with pytest.raises(ShapeError):
            lower_shadow(f, 3)
        with pytest.raises(ShapeError):
            lower_shadow(f, -1)
        with pytest.raises(ShapeError):
            upper_shadow(f, 1)
        with pytest.raises(ShapeError):
            upper_shadow(f, 5)

    def test_against_brute_force(self):
        rng = random.Random(23)
        for _ in range(150):
            n = rng.randint(1, 8)
            k = rng.randint(0, n)
            f = random_family(rng, n, k, rng.randint(0, binomial(n, k)))
            for b in range(0, k + 1):
                assert set(lower_shadow(f, b).members) == brute_lower_shadow(f, b)
            for u in range(k, n + 1):
                assert set(upper_shadow(f, u).members) == brute_upper_shadow(f, u)

    def test_deep_shadows_skip_middle_levels(self):
        # Stepping level by level would pass through C(39, 19) or C(30, 15)
        # intermediate sets here; the direct enumeration touches 39 and 30.
        started = time.perf_counter()
        up = upper_shadow(fam(40, 1, (1,)), 39)
        down = lower_shadow(fam(40, 30, tuple(range(1, 31))), 29)
        assert time.perf_counter() - started < 1.0
        assert len(up) == 39 and all(m & 1 for m in up.members)
        assert down == SetFamily.from_sets(40, 1, [(e,) for e in range(1, 31)])
        # the middle level itself is refused by the guard, not materialized
        with pytest.raises(ShapeError, match="cap is"):
            upper_shadow(fam(40, 1, (1,)), 20)

    def test_lower_guard_refuses_before_work(self):
        # one 30-set has C(30, 15) ≈ 1.6e8 subsets of size 15
        with pytest.raises(ShapeError, match="lower_shadow: would touch 155117520 candidate sets"):
            lower_shadow(fam(30, 30, tuple(range(1, 31))), 15)

    def test_duality(self):
        # upper shadow = complement of the lower shadow of the complements
        rng = random.Random(29)
        for _ in range(120):
            n = rng.randint(1, 8)
            k = rng.randint(0, n)
            f = random_family(rng, n, k, rng.randint(0, binomial(n, k)))
            full = (1 << n) - 1
            comp = SetFamily.from_masks(n, n - k, (full ^ m for m in f.members))
            for u in range(k, n + 1):
                direct = set(upper_shadow(f, u).members)
                via = {full ^ m for m in lower_shadow(comp, u - k).members}
                assert direct == via


def _brute_kk_minima(n, k, direction, target):
    """Min shadow size for each family size m, by scanning all 2^C(n,k) families."""
    layer = list(enumerate_ksets(n, k))
    if direction == "lower":
        images = [brute_lower_shadow(SetFamily.from_masks(n, k, [m]), k - target) for m in layer]
    else:
        images = [brute_upper_shadow(SetFamily.from_masks(n, k, [m]), target) for m in layer]
    best = [None] * (len(layer) + 1)
    for sub in range(1 << len(layer)):
        shadow: set[int] = set()
        size = 0
        rest = sub
        while rest:
            low = rest & -rest
            shadow |= images[low.bit_length() - 1]
            size += 1
            rest ^= low
        if best[size] is None or len(shadow) < best[size]:
            best[size] = len(shadow)
    return best


class TestKruskalKatona:
    def test_examples(self):
        assert kk_min_shadow_size(6, 3, 4, "lower") == 6
        assert kk_min_shadow_size(4, 1, 2, "upper", target_size=2) == 5
        assert kk_min_shadow_size(6, 3, 0, "lower") == 0
        assert kk_min_shadow_size(6, 2, binomial(6, 2), "lower") == 6

    def test_validation(self):
        with pytest.raises(ShapeError):
            kk_min_shadow_size(6, 3, 21, "lower")
        with pytest.raises(ShapeError):
            kk_min_shadow_size(6, 3, 4, "sideways")

    @pytest.mark.parametrize(
        "n, k, direction, target",
        [
            (6, 3, "lower", 2),
            (6, 3, "upper", 4),
            (5, 2, "lower", 1),
            (5, 2, "upper", 3),
            (6, 2, "lower", 1),
        ],
    )
    def test_exhaustive_minimum(self, n, k, direction, target):
        # the claimed minimum is attained and never undercut, for every size m
        minima = _brute_kk_minima(n, k, direction, target)
        for m in range(binomial(n, k) + 1):
            assert kk_min_shadow_size(n, k, m, direction, target_size=target) == minima[m]

    def test_initial_segments_attain_lower(self):
        from emcverify.core import lex_initial_family

        for n in (5, 6, 7):
            for k in (2, 3):
                for m in range(binomial(n, k) + 1):
                    colex = lex_initial_family(n, k, m, order="colex")
                    got = len(lower_shadow(colex, 1)) if m else 0
                    assert got == kk_min_shadow_size(n, k, m, "lower")

    @pytest.mark.parametrize("direction", ["lower", "upper"])
    def test_cascade_matches_initial_segments(self, direction):
        # every n <= 8, k (0 and n included), m and target: the floor is the
        # shadow size of the first m k-sets in colex (lower) or lex (upper)
        # order, with shadows taken by the brute-force oracles
        order = "colex" if direction == "lower" else "lex"
        for n in range(0, 9):
            for k in range(0, n + 1):
                layer = list(enumerate_ksets(n, k, order=order))
                targets = range(0, k + 1) if direction == "lower" else range(k, n + 1)
                for t in targets:
                    shadow: set[int] = set()
                    for m in range(len(layer) + 1):
                        if m:
                            one = SetFamily.from_masks(n, k, [layer[m - 1]])
                            shadow |= (
                                brute_lower_shadow(one, k - t)
                                if direction == "lower"
                                else brute_upper_shadow(one, t)
                            )
                        got = kk_min_shadow_size(n, k, m, direction, target_size=t)
                        assert got == len(shadow), (n, k, m, t)

    def test_floor_at_scale(self):
        # the cascade builds no family, so huge n and m cost milliseconds
        n, k = 10**4, 6
        started = time.perf_counter()
        kk_min_shadow_size(n, k, 10**15, "lower")
        kk_min_shadow_size(n, k, 10**15, "upper")
        assert time.perf_counter() - started < 1.0
        for a in (k, 1000, n - 1, n):
            for t in range(0, k + 1):
                assert kk_min_shadow_size(n, k, binomial(a, k), "lower", target_size=t) == binomial(a, t)
        for t in range(k, k + 4):
            assert kk_min_shadow_size(n, k, 1, "upper", target_size=t) == binomial(n - k, t - k)


class TestBTCheck:
    def test_single_pair_example(self):
        chk = bt_check(fam(4, 2, (1, 2)), 3)
        assert (chk.lhs, chk.rhs) == (24, 16)
        assert chk.verdict
        assert chk.shadow_size == 2

    def test_full_layer_equality(self):
        f = SetFamily.from_masks(4, 2, enumerate_ksets(4, 2))
        chk = bt_check(f, 3)
        assert chk.verdict and chk.lhs == chk.rhs

    def test_empty(self):
        assert bt_check(fam(4, 2), 3).verdict
        # degenerate corner: at u = n the right side carries 0^0 = 1, so the
        # cross-multiplied inequality is honestly false for an empty family
        assert not bt_check(fam(4, 2), 4).verdict

    def test_always_true_for_nonempty(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 7)
            k = rng.randint(0, n)
            f = random_family(rng, n, k, rng.randint(1, binomial(n, k)))
            for u in range(k, n + 1):
                assert bt_check(f, u).verdict


class TestShiftedEnumeration:
    def test_small_counts(self):
        assert len(list(enumerate_shifted_families(3, 2))) == 4
        assert len(list(enumerate_shifted_families(2, 1))) == 3
        assert len(list(enumerate_shifted_families(3, 3))) == 2
        assert len(list(enumerate_shifted_families(6, 2))) == 32
        assert len(list(enumerate_shifted_families(9, 2))) == 256
        assert len(list(enumerate_shifted_families(6, 3))) == 66

    def test_exact_families_at_3_2(self):
        got = sorted(tuple(f.as_sets()) for f in enumerate_shifted_families(3, 2))
        assert got == [
            (),
            ((1, 2),),
            ((1, 2), (1, 3)),
            ((1, 2), (1, 3), (2, 3)),
        ]

    def test_matches_filtering_all_families(self):
        for n, k in ((4, 2), (5, 2), (4, 3)):
            layer = list(enumerate_ksets(n, k))
            expected = set()
            for sub in range(1 << len(layer)):
                members = [layer[i] for i in range(len(layer)) if sub >> i & 1]
                f = SetFamily.from_masks(n, k, members)
                if is_shifted(f):
                    expected.add(f.members)
            got = {f.members for f in enumerate_shifted_families(n, k)}
            assert got == expected

    def test_all_yields_shifted_and_distinct(self):
        out = list(enumerate_shifted_families(6, 3))
        assert out[0].members == ()
        assert all(is_shifted(f) for f in out)
        assert len({f.members for f in out}) == len(out)

    def test_guard(self):
        with pytest.raises(ShapeError):
            list(enumerate_shifted_families(8, 4))

    def test_singleton_families_are_prefixes(self):
        got = {tuple(f.as_sets()) for f in enumerate_shifted_families(5, 1)}
        prefixes = {tuple((e,) for e in range(1, m + 1)) for m in range(6)}
        assert got == prefixes


class TestShiftedSliceShadow:
    def test_empty_trace_shadow_lands_in_top_slice(self):
        # down-closure pushes any member fully inside the tail onto members
        # using the last prefix label instead
        from emcverify.densities import slice_family

        s = 1
        for n, k in ((6, 2), (6, 3)):
            for f in enumerate_shifted_families(n, k):
                empty = slice_family(f, 0, s)
                top = set(slice_family(f, s + 1, s).members)
                if empty.k < 1:
                    continue
                for m in lower_shadow(empty, 1).members:
                    assert m in top
