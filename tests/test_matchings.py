import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    brute_hall_assignment,
    brute_matching_number,
    brute_matchings,
    brute_rainbow,
    random_family,
    shuffle_draws,
)
from emcverify.constructions import build_extremal
from emcverify.core import (
    Params,
    SetFamily,
    ShapeError,
    binomial,
    enumerate_ksets,
    mask_from_elements,
    parse_family_text,
)
from emcverify.matchings import (
    enumerate_matchings,
    find_rainbow,
    hall_rainbow_in_matching,
    matching_count,
    matching_number,
    matching_draws,
    sample_matching,
)


def fam(n, k, *sets):
    return SetFamily.from_sets(n, k, sets)


class TestMatchingNumber:
    def test_examples(self):
        assert matching_number(fam(6, 2, (1, 2), (3, 4))) == 2
        assert matching_number(SetFamily.from_masks(6, 2, enumerate_ksets(6, 2))) == 3
        star = fam(6, 2, (1, 2), (1, 3), (1, 4))
        assert matching_number(star) == 1
        assert matching_number(fam(6, 2)) == 0

    def test_against_brute_force(self):
        rng = random.Random(67)
        for _ in range(200):
            n = rng.randint(1, 8)
            k = rng.randint(1, min(3, n))
            f = random_family(rng, n, k, rng.randint(0, min(binomial(n, k), 18)))
            assert matching_number(f) == brute_matching_number(f)

    def test_empty_set_member(self):
        # the k = 0 layer holds only the empty set, which meets no member
        for n in (0, 3):
            empty_layer = SetFamily.from_masks(n, 0, [0])
            assert matching_number(empty_layer) == brute_matching_number(empty_layer) == 1

    def test_search_against_brute_force(self):
        # 1,200 seeded families, n <= 12 and k from 1 to 4, with the edge shapes
        rng = random.Random(2024)
        families = [SetFamily(0, 0, (0,)), SetFamily(5, 0, (0,)), SetFamily(0, 1, ())]
        for n in range(1, 13):
            families += [SetFamily(n, n, ((1 << n) - 1,)), SetFamily(n, min(n, 3), ())]
        while len(families) < 1200:
            n = rng.randint(1, 12)
            k = rng.randint(1, min(4, n))
            size = rng.randint(0, min(binomial(n, k), 6 if k == 1 else 24))
            families.append(random_family(rng, n, k, size))
        for f in families:
            assert matching_number(f) == brute_matching_number(f), f

    @pytest.mark.parametrize("n, k, s", [(40, 3, 3), (60, 4, 5), (30, 5, 4)])
    def test_extremal_families_have_nu_s(self, n, k, s):
        for kind in "AB":
            f = build_extremal(Params(n=n, k=k, s=s), kind)
            start = time.perf_counter()
            assert matching_number(f) == s
            assert time.perf_counter() - start < 1.0

    def test_deep_family_needs_no_recursion(self):
        pairs = SetFamily.from_sets(2400, 2, [(2 * i - 1, 2 * i) for i in range(1, 1201)])
        assert matching_number(pairs) == 1200
        singles = SetFamily.from_sets(1200, 1, [(e,) for e in range(1, 1201)])
        assert matching_number(singles) == 1200

    def test_wide_ground_answers_at_once(self):
        start = time.perf_counter()
        f = parse_family_text("50000000 2\n2 3\n1 50000000\n")
        assert matching_number(f) == 2
        assert time.perf_counter() - start < 1.0

    def test_wide_ground_relabeled(self):
        # element n is in the first and the last member; the search works on the
        # 999 covered elements, not on masks 2e6 bits wide
        n = 2 * 10**6
        f = SetFamily.from_sets(n, 2, [(1, n), *((i, i + 1) for i in range(3, 998, 2)), (999, n)])
        start = time.perf_counter()
        assert (len(f), matching_number(f)) == (500, 499)
        assert time.perf_counter() - start < 0.2

    def test_monotone_under_union(self):
        rng = random.Random(71)
        for _ in range(60):
            f = random_family(rng, 7, 2, rng.randint(0, 10))
            g = random_family(rng, 7, 2, rng.randint(0, 10))
            union = SetFamily.from_masks(7, 2, set(f.members) | set(g.members))
            assert matching_number(union) >= max(matching_number(f), matching_number(g))


class TestFindRainbow:
    def test_disjoint_pair(self):
        w = find_rainbow((fam(6, 2, (1, 2)), fam(6, 2, (3, 4))))
        assert w.complete
        assert w.assignment == (mask_from_elements([1, 2]), mask_from_elements([3, 4]))

    def test_three_full_layers_on_five_points(self):
        full = SetFamily.from_masks(5, 2, enumerate_ksets(5, 2))
        w = find_rainbow((full, full, full))
        assert not w.complete

    def test_two_full_layers_on_five_points(self):
        full = SetFamily.from_masks(5, 2, enumerate_ksets(5, 2))
        assert find_rainbow((full, full)).complete

    def test_empty_family_blocks_everything(self):
        w = find_rainbow((fam(6, 2), fam(6, 2, (1, 2))))
        assert not w.complete

    def test_against_product_search(self):
        rng = random.Random(73)
        for _ in range(150):
            n = rng.randint(2, 7)
            count = rng.randint(1, 4)
            k = rng.choice([1, 2])
            families = tuple(
                random_family(rng, n, k, rng.randint(0, 8)) for _ in range(count)
            )
            w = find_rainbow(families)
            brute = brute_rainbow(families)
            assert w.complete == (brute is not None)
            if w.complete:
                acc = 0
                for idx, m in enumerate(w.assignment):
                    assert m in families[idx]
                    assert not (acc & m)
                    acc |= m


class TestHall:
    def blocks(self, *sets):
        return SetFamily.from_sets(12, 2, sets)

    def test_staircase_complete(self):
        m = self.blocks((1, 2), (3, 4), (5, 6), (7, 8))
        b = m.members
        families = tuple(
            SetFamily.from_masks(12, 2, b[: i + 1]) for i in range(3)
        )
        w = hall_rainbow_in_matching(families, m)
        assert w.complete
        assert len({x for x in w.assignment}) == 3

    def test_violation_incomplete(self):
        m = self.blocks((1, 2), (3, 4))
        same = SetFamily.from_masks(12, 2, m.members[:1])
        w = hall_rainbow_in_matching((same, same), m)
        assert not w.complete

    def test_members_outside_matching_ignored(self):
        m = self.blocks((1, 2), (3, 4))
        f = self.blocks((5, 6), (1, 2))
        w = hall_rainbow_in_matching((f,), m)
        assert w.complete
        assert w.assignment[0] == mask_from_elements([1, 2])

    def test_against_brute_assignment(self):
        rng = random.Random(79)
        all_blocks = [mask_from_elements([2 * i + 1, 2 * i + 2]) for i in range(6)]
        for _ in range(400):
            t = rng.randint(1, 6)
            blocks = all_blocks[:t]
            m = SetFamily.from_masks(12, 2, blocks)
            n_fam = rng.randint(1, 6)
            families = tuple(
                SetFamily.from_masks(
                    12, 2, [b for b in blocks if rng.random() < 0.5]
                )
                for _ in range(n_fam)
            )
            w = hall_rainbow_in_matching(families, m)
            brute = brute_hall_assignment(
                [set(f.members) & set(blocks) for f in families], blocks
            )
            assert w.complete == (brute is not None)
            if w.complete:
                chosen = [x for x in w.assignment]
                assert len(set(chosen)) == len(chosen)
                for idx, b in enumerate(chosen):
                    assert b in families[idx] and b in m.members

    def test_staircase_always_completes(self):
        rng = random.Random(83)
        all_blocks = [mask_from_elements([2 * i + 1, 2 * i + 2]) for i in range(6)]
        for _ in range(200):
            t = rng.randint(1, 6)
            blocks = all_blocks[:t]
            m = SetFamily.from_masks(12, 2, blocks)
            sizes = sorted(rng.randint(i + 1, t) for i in range(rng.randint(1, t)))
            families = tuple(
                SetFamily.from_masks(12, 2, rng.sample(blocks, sz)) for sz in sizes
            )
            ordered = sorted(len(f) for f in families)
            assert all(ordered[i] >= i + 1 for i in range(len(ordered)))
            assert hall_rainbow_in_matching(families, m).complete


class TestMatchingCount:
    def test_examples(self):
        assert matching_count(Params(n=5, k=3, s=0), t=2) == 3
        assert matching_count(Params(n=8, k=3, s=1), t=3) == 15
        p = Params(n=10, k=3, s=1)
        assert matching_count(p, t=1) == binomial(p.n_prime, 2)
        assert matching_count(p, t=0) == 1

    def test_singleton_blocks_choose(self):
        p = Params(n=9, k=2, s=2)
        for t in range(0, p.n_prime + 1):
            assert matching_count(p, t) == binomial(p.n_prime, t)

    def test_default_t(self):
        p = Params(n=8, k=3, s=1)
        assert matching_count(p) == matching_count(p, t=p.t)

    def test_too_many_blocks(self):
        with pytest.raises(ShapeError):
            matching_count(Params(n=8, k=3, s=1), t=4)

    def test_k1_rejected(self):
        with pytest.raises(ShapeError):
            matching_count(Params(n=8, k=1, s=1))


class TestEnumerateMatchings:
    @pytest.mark.parametrize(
        "n, k, s, t",
        [(5, 3, 0, 2), (8, 3, 1, 3), (8, 3, 1, 2), (9, 4, 0, 2), (9, 2, 2, 3)],
    )
    def test_matches_brute_force(self, n, k, s, t):
        p = Params(n=n, k=k, s=s)
        got = {m.members for m in enumerate_matchings(p, t)}
        want = set(brute_matchings(n, p.x_first, k - 1, t))
        assert got == want
        assert len(got) == matching_count(p, t)

    def test_counts_and_shape(self):
        p = Params(n=8, k=3, s=1)
        out = list(enumerate_matchings(p, 3))
        assert len(out) == 15
        for m in out:
            assert m.k == 2 and len(m) == 3
            acc = 0
            for b in m.members:
                assert not (acc & b)
                assert not (b & ~p.x_mask)
                acc |= b

    def test_guard(self):
        with pytest.raises(ShapeError):
            list(enumerate_matchings(Params(n=40, k=2, s=0), t=19))

    def test_long_ground_needs_no_recursion(self):
        # n' = 2000: one block per level, so the length of X sets no depth
        p = Params(n=2002, k=2, s=1)
        assert sum(1 for _ in enumerate_matchings(p, 1)) == matching_count(p, 1) == 2000
        wide = Params(n=2002, k=3, s=1)
        first = [m.as_sets() for m in itertools.islice(enumerate_matchings(wide, 1), 2)]
        assert first == [[(2001, 2002)], [(2000, 2001)]]

    def test_empty_matching(self):
        p = Params(n=8, k=3, s=1)
        assert [m.members for m in enumerate_matchings(p, 0)] == [()]


def assert_uniform_on_perfect_pairings(draws) -> None:
    """15 perfect pairings of 6 points; every one within 5 sigma of 1/15."""
    counts: dict[tuple, int] = {}
    for m in draws:
        counts[m] = counts.get(m, 0) + 1
    trials = sum(counts.values())
    assert len(counts) == 15
    prob = 1 / 15
    sigma = math.sqrt(prob * (1 - prob) / trials)
    for c in counts.values():
        assert abs(c / trials - prob) < 5 * sigma


class TestSampleMatching:
    def test_deterministic(self):
        p = Params(n=10, k=3, s=1)
        assert sample_matching(p, seed=5) == sample_matching(p, seed=5)
        # different seeds eventually differ
        draws = {sample_matching(p, seed=i).members for i in range(20)}
        assert len(draws) > 1

    def test_shape(self):
        p = Params(n=11, k=3, s=2)
        m = sample_matching(p, seed=1)
        assert len(m) == p.t and m.k == 2
        acc = 0
        for b in m.members:
            assert not (b & ~p.x_mask)
            assert not (acc & b)
            acc |= b

    def test_explicit_t(self):
        p = Params(n=11, k=3, s=2)
        assert len(sample_matching(p, seed=1, t=2)) == 2

    @pytest.mark.parametrize(
        "n, k, s, seed, t, blocks",
        [
            (20, 3, 2, 7, None, [(6, 7), (11, 13), (9, 15), (17, 18), (16, 19)]),
            (12, 2, 1, 0, None, [(4,), (6,), (8,), (10,), (11,)]),
            (17, 4, 1, 123456789, None, [(3, 4, 8), (6, 7, 16), (5, 15, 17)]),
            (30, 3, 2, 5, 4, [(6, 14), (8, 16), (13, 17), (28, 30)]),
        ],
    )
    def test_pinned_draws(self, n, k, s, seed, t, blocks):
        # sample-matching prints these blocks; a sampler change must keep them
        p = Params(n=n, k=k, s=s)
        assert sample_matching(p, seed, t).as_sets() == blocks
        assert sorted(next(matching_draws(p, seed, t))) == list(sample_matching(p, seed, t).members)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_stream_is_random_shuffles(self, k):
        # the draws are random.shuffle's, so seeded outputs never move: the
        # first 300 draws of every shape that fits, n' = 1..40; a shorter
        # matching is the first blocks of a longer one from the same shuffles
        for n_prime in range(1, 41):
            p = Params(n=n_prime + k, k=k, s=k - 1)
            fits = [t for t in sorted({0, 1, p.t}) if t * (k - 1) <= n_prime]
            for seed in (0, 7, 2**40):
                expected = list(itertools.islice(shuffle_draws(p, seed, fits[-1]), 300))
                for t in fits:
                    got = list(itertools.islice(matching_draws(p, seed, t), 300))
                    assert got == [d[:t] for d in expected], (p, t, seed)

    def test_frequencies_on_perfect_partitions(self):
        p = Params(n=8, k=3, s=1)
        assert_uniform_on_perfect_pairings(sample_matching(p, seed=i, t=3).members
                                           for i in range(15000))

    def test_one_stream_on_perfect_partitions(self):
        p = Params(n=8, k=3, s=1)
        draws = itertools.islice(matching_draws(p, 0, t=3), 15000)
        assert_uniform_on_perfect_pairings(tuple(sorted(d)) for d in draws)

    def test_shape_refused_at_the_first_draw(self):
        with pytest.raises(ShapeError, match="does not fit"):
            next(matching_draws(Params(n=8, k=2, s=1), 0, t=7))

    def test_chi_square_uniformity(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        p = Params(n=9, k=2, s=2)  # singleton blocks, C(6,3) = 20 matchings
        t = 3
        support = matching_count(p, t)
        assert support == 20
        trials = 100_000
        counts: dict[tuple, int] = {}
        for i in range(trials):
            m = sample_matching(p, seed=i, t=t)
            counts[m.members] = counts.get(m.members, 0) + 1
        assert len(counts) == support
        expected = trials / support
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        cutoff = scipy_stats.chi2.ppf(1 - 1e-3, df=support - 1)
        assert chi2 < cutoff
