import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import brute_matchings, law_mean
from emcverify.concentration import (
    EXACT_WORK_CAP,
    beta_tails,
    check_exact_work,
    default_beta_grid,
    default_gamma,
    event_probe,
    exact_eta_distribution,
    exact_eta_report,
    exact_work_bound,
    gamma_threshold,
    layer_density,
    monte_carlo_eta,
    tail_bound,
)
from emcverify.core import Params, SetFamily, ShapeError, binomial, enumerate_ksets
from emcverify.densities import slice_family
from emcverify.matchings import (
    ENUMERATION_GUARD,
    enumerate_matchings,
    matching_count,
    matching_draws,
)


def block_layer(params: Params) -> SetFamily:
    """All (k-1)-subsets of the tail X."""
    masks = []
    shift = params.x_first - 1
    for m in enumerate_ksets(params.n_prime, params.k - 1):
        masks.append(m << shift)
    return SetFamily.from_masks(params.n, params.k - 1, masks)


def star_blocks(params: Params) -> SetFamily:
    """All blocks through the first tail element."""
    first = params.x_first
    rest = range(first + 1, params.n + 1)
    sets = [(first, *c) for c in itertools.combinations(rest, params.k - 2)]
    return SetFamily.from_sets(params.n, params.k - 1, sets)


def brute_eta_dist(g: SetFamily, params: Params, t: int) -> dict[int, Fraction]:
    matchings = brute_matchings(params.n, params.x_first, params.k - 1, t)
    members = set(g.members)
    counts: dict[int, int] = {}
    for m in matchings:
        eta = sum(1 for b in m if b in members)
        counts[eta] = counts.get(eta, 0) + 1
    return {eta: Fraction(c, len(matchings)) for eta, c in counts.items()}


class TestLayerDensity:
    def test_star(self):
        p = Params(n=8, k=3, s=1)
        assert layer_density(star_blocks(p), p) == Fraction(1, 3)

    def test_full(self):
        p = Params(n=8, k=3, s=1)
        assert layer_density(block_layer(p), p) == 1

    def test_shape_validation(self):
        p = Params(n=8, k=3, s=1)
        with pytest.raises(ShapeError):
            layer_density(SetFamily.from_sets(8, 3, [(3, 4, 5)]), p)
        with pytest.raises(ShapeError, match="inside X"):
            layer_density(SetFamily.from_sets(8, 2, [(1, 3)]), p)

    def test_ground_must_match(self):
        p = Params(n=9, k=3, s=1)
        with pytest.raises(ShapeError, match=r"ground \[8\] does not match n=9"):
            layer_density(SetFamily.from_sets(8, 2, [(3, 4)]), p)


class TestExactDistribution:
    def test_star_with_perfect_matchings(self):
        p = Params(n=8, k=3, s=1)
        dist = exact_eta_distribution(star_blocks(p), p, t=3)
        assert dist == {1: Fraction(1)}
        assert law_mean(dist) == layer_density(star_blocks(p), p) * 3

    def test_full_layer(self):
        p = Params(n=8, k=3, s=1)
        assert exact_eta_distribution(block_layer(p), p, t=3) == {3: Fraction(1)}

    def test_empty(self):
        p = Params(n=8, k=3, s=1)
        empty = SetFamily.from_masks(8, 2, [])
        assert exact_eta_distribution(empty, p, t=2) == {0: Fraction(1)}

    @pytest.mark.parametrize(
        "n, k, s, t", [(8, 3, 1, 2), (8, 3, 1, 3), (9, 2, 2, 3), (5, 3, 0, 2)]
    )
    def test_against_brute_force(self, n, k, s, t):
        rng = random.Random(89)
        p = Params(n=n, k=k, s=s)
        layer = block_layer(p)
        for _ in range(8):
            members = [m for m in layer.members if rng.random() < 0.45]
            g = SetFamily.from_masks(n, k - 1, members)
            got = exact_eta_distribution(g, p, t)
            assert got == brute_eta_dist(g, p, t)

    def test_mean_is_alpha_t_everywhere(self):
        rng = random.Random(97)
        for n, k, s in ((8, 3, 1), (9, 2, 2), (7, 2, 1), (9, 4, 0)):
            p = Params(n=n, k=k, s=s)
            layer = block_layer(p)
            for t in range(0, p.t + 1):
                for _ in range(4):
                    members = [m for m in layer.members if rng.random() < 0.5]
                    g = SetFamily.from_masks(n, k - 1, members)
                    dist = exact_eta_distribution(g, p, t)
                    assert law_mean(dist) == layer_density(g, p) * t
                    assert sum(dist.values()) == 1


def enumerated_eta_dist(g: SetFamily, params: Params, t: int) -> dict[int, Fraction]:
    """The exact law by listing every t-matching, in increasing eta."""
    members = set(g.members)
    counts: dict[int, int] = {}
    for matching in enumerate_matchings(params, t):
        eta = sum(1 for b in matching.members if b in members)
        counts[eta] = counts.get(eta, 0) + 1
    total = sum(counts.values())
    return {eta: Fraction(c, total) for eta, c in sorted(counts.items())}


def half_layer(params: Params, rng: random.Random) -> SetFamily:
    members = [m for m in block_layer(params).members if rng.random() < 0.5]
    return SetFamily.from_masks(params.n, params.k - 1, members)


# k = 2 at t = n'/2: the work bound equals its floor, 4t^3/3 + O(t^2), so the
# guard admits n' = 562 and refuses 563 at the cap of 3e7.
LARGEST_K2_N_PRIME = 562


class TestExactDynamicProgram:
    def test_equals_enumeration_on_every_small_shape(self):
        rng = random.Random(2024)
        shapes = 0
        for k in (3, 4):
            for n_prime in range(k - 1, 13):
                p = Params(n=n_prime + 2, k=k, s=1)
                for t in range(p.t + 1):
                    if matching_count(p, t) > 20_000:
                        continue
                    g = half_layer(p, rng)
                    got = exact_eta_distribution(g, p, t)
                    want = enumerated_eta_dist(g, p, t)
                    assert got == want and list(got) == list(want), (n_prime, k, t)
                    shapes += 1
        assert shapes == 56

    @pytest.mark.parametrize("n_prime", [40, LARGEST_K2_N_PRIME])
    def test_k2_is_hypergeometric(self, n_prime):
        # one-element blocks: M is a uniform t-subset of X, so eta is
        # hypergeometric in |G| (Hoeffding 1963)
        p = Params(n=n_prime + 2, k=2, s=1)
        t = p.t
        rng = random.Random(n_prime)
        g = half_layer(p, rng)
        size = len(g)
        dist = exact_eta_distribution(g, p)
        want = {
            eta: Fraction(binomial(size, eta) * binomial(n_prime - size, t - eta),
                          binomial(n_prime, t))
            for eta in range(t + 1)
            if binomial(size, eta) * binomial(n_prime - size, t - eta)
        }
        assert dist == want and list(dist) == list(want)

    def test_largest_k2_shape_is_the_guard_edge(self):
        for n_prime, refused in ((LARGEST_K2_N_PRIME, False), (LARGEST_K2_N_PRIME + 1, True)):
            t = n_prime // 2
            assert (exact_work_bound(n_prime, 1, t) > EXACT_WORK_CAP) is refused
            assert matching_count(Params(n=n_prime + 2, k=2, s=1), t) > ENUMERATION_GUARD

    def test_mean_at_22_3_7(self):
        p = Params(n=25, k=3, s=2)
        assert (p.n_prime, p.t) == (22, 7)
        g = half_layer(p, random.Random(7))
        dist = exact_eta_distribution(g, p)
        assert sum(dist.values()) == 1
        assert law_mean(dist) == layer_density(g, p) * 7

    def test_one_matching_on_a_long_tail(self):
        # t = n' one-element blocks: a single matching, 2000 positions deep
        p = Params(n=2002, k=2, s=1)
        g = SetFamily.from_sets(p.n, 1, [(3,), (500,), (2002,)])
        assert exact_eta_distribution(g, p, t=p.n_prime) == {3: Fraction(1)}


class TestExactGuard:
    def test_refuses_26_4_6_before_work(self):
        p = Params(n=29, k=4, s=2)
        with pytest.raises(ShapeError, match="work bound above"):
            check_exact_work(p, p.t)
        with pytest.raises(ShapeError, match="work bound above"):
            exact_eta_distribution(star_blocks(p), p)

    @pytest.mark.parametrize("n, k, s, t", [(10**7, 2, 1, None), (5 * 10**7, 3, 1, None),
                                            (5 * 10**7, 2, 1, 2), (5 * 10**7, 2, 1, 49_999_996)])
    def test_huge_shapes_refused_at_once(self, n, k, s, t):
        p = Params(n=n, k=k, s=s)
        with pytest.raises(ShapeError, match="more than 10000000 matchings"):
            check_exact_work(p, p.t if t is None else t)

    def test_never_refuses_what_the_enumerator_answered(self):
        # at most ENUMERATION_GUARD matchings is always admitted, whatever the bound
        for p, t in ((Params(n=5 * 10**7, k=2, s=1), 5 * 10**7 - 2),
                     (Params(n=2002, k=2, s=1), 1999), (Params(n=4474, k=3, s=1), 1)):
            assert matching_count(p, t) <= ENUMERATION_GUARD
            check_exact_work(p, t)
        assert exact_work_bound(5 * 10**7 - 2, 1, 5 * 10**7 - 2) > EXACT_WORK_CAP
        assert exact_work_bound(2000, 1, 1999) > EXACT_WORK_CAP

    def test_bound_floor_and_cut(self):
        # k = 2: one state per feasible (h, j), two moves, t-j+1 counts
        for n_prime, t in ((10, 5), (40, 20), (9, 1), (30, 30), (562, 281)):
            want = sum(2 * (t - j + 1) * (n_prime - (t - j) + 1) for j in range(t))
            assert exact_work_bound(n_prime, 1, t) == want <= EXACT_WORK_CAP
        assert exact_work_bound(22, 2, 7) == 28_351_064
        # summing stops just past the cap, or at the closed-form floor
        assert EXACT_WORK_CAP < exact_work_bound(24, 2, 8) < 2 * EXACT_WORK_CAP
        assert exact_work_bound(1000, 1, 500) > 10**8

    def test_refuses_exactly_by_the_rule(self):
        for k in (2, 3, 4):
            for n_prime in range(k - 1, 30):
                p = Params(n=n_prime + 2, k=k, s=1)
                for t in range(p.t + 1):
                    above = matching_count(p, t) > ENUMERATION_GUARD
                    bound = exact_work_bound(n_prime, k - 1, t)
                    refused = above and bound > EXACT_WORK_CAP
                    try:
                        check_exact_work(p, t)
                    except ShapeError:
                        assert refused, (n_prime, k, t)
                    else:
                        assert not refused, (n_prime, k, t)


class TestBetaTails:
    def test_star_two_valued(self):
        # n' = 7, t = 2: eta = 1 iff the first tail element is covered,
        # 60 of the 105 matchings, so alpha*t = 4/7
        p = Params(n=9, k=3, s=1)
        dist = exact_eta_distribution(star_blocks(p), p)
        assert dist == {0: Fraction(3, 7), 1: Fraction(4, 7)}
        center = layer_density(star_blocks(p), p) * 2
        tails = beta_tails({0: 45, 1: 60}, 105, center, 2, (0.1, 0.18, 0.25))
        assert [bt.tail_count for bt in tails] == [105, 45, 0]
        assert [bt.tail_freq for bt in tails] == [1, Fraction(3, 7), 0]
        assert [bt.bound for bt in tails] == [tail_bound(b) for b in (0.1, 0.18, 0.25)]
        assert tails[1].threshold == 2 * 0.18 * math.sqrt(2)

    def test_monte_carlo_uses_the_same_tails(self):
        p = Params(n=9, k=2, s=2)
        g = star_blocks(p)
        rep = monte_carlo_eta(g, p, trials=300, seed=4, beta_grid=(0.25, 1.0))
        center = layer_density(g, p) * rep.t
        assert rep.beta_grid == beta_tails(rep.eta_histogram, 300, center, rep.t, (0.25, 1.0))


class TestExactReport:
    @pytest.mark.parametrize("n, k, s, t", [(9, 3, 1, None), (12, 3, 2, 2), (11, 2, 1, None),
                                            (13, 4, 1, 2), (10, 2, 2, 0)])
    def test_tails_equal_beta_tails_over_the_enumeration(self, n, k, s, t):
        p = Params(n=n, k=k, s=s)
        g = half_layer(p, random.Random(n * k + s))
        hist: dict[int, int] = {}
        for matching in enumerate_matchings(p, t):
            eta = sum(b in g.members for b in matching.members)
            hist[eta] = hist.get(eta, 0) + 1
        total = sum(hist.values())
        betas = (0.0, 0.25, 0.5, 1.0)
        rep = exact_eta_report(g, p, t=t, beta_grid=betas)
        center = layer_density(g, p) * rep.t
        assert rep.t == (p.t if t is None else t) and rep.alpha == layer_density(g, p)
        assert rep.distribution == {eta: Fraction(c, total) for eta, c in sorted(hist.items())}
        assert rep.mean == rep.expected_mean == center and rep.verdict
        assert rep.beta_grid == beta_tails(hist, total, center, rep.t, betas)
        default = exact_eta_report(g, p, t=t).beta_grid
        assert default == beta_tails(hist, total, center, rep.t, default_beta_grid(s))

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_beta_refused_before_the_count(self, beta, monkeypatch):
        p = Params(n=9, k=3, s=1)
        monkeypatch.setattr("emcverify.concentration._eta_counts", None)
        with pytest.raises(ShapeError, match="need finite betas >= 0"):
            exact_eta_report(star_blocks(p), p, beta_grid=(beta,))


class TestTailInequality:
    def test_exact_tails_within_the_bound(self):
        # Frankl-Kupavskii: Pr[|eta - alpha*t| >= 2*beta*sqrt(t)] <= 2*exp(-beta^2/2),
        # checked on the exact law for k in {2, 3, 4}, every t up to p.t, a
        # star and a random G, and beta from 0.25 to 3
        betas = tuple(x / 4 for x in range(1, 13))
        rng = random.Random(29)
        checks = 0
        for n_prime, k in [(9, 2), (16, 2), (25, 2), (40, 2), (9, 3), (12, 3), (16, 3), (18, 3),
                           (9, 4), (12, 4), (16, 4)]:
            p = Params(n=n_prime + 3, k=k, s=2)
            for g in (star_blocks(p), half_layer(p, rng)):
                alpha = layer_density(g, p)
                for t in range(1, p.t + 1):
                    total = matching_count(p, t)
                    hist = {eta: int(q * total) for eta, q in exact_eta_distribution(g, p, t).items()}
                    for bt in beta_tails(hist, total, alpha * t, t, betas):
                        assert bt.tail_freq <= bt.bound, (n_prime, k, t, bt)
                        checks += 1
        assert checks == 1704


class TestTailBound:
    def test_values(self):
        assert tail_bound(0.0) == 2.0
        assert tail_bound(1.0) == pytest.approx(2 * math.exp(-0.5))
        assert tail_bound(10.0) < 1e-20


class TestMonteCarlo:
    def test_reproducible(self):
        p = Params(n=9, k=2, s=2)
        g = star_blocks(p)
        a = monte_carlo_eta(g, p, trials=500, seed=42)
        b = monte_carlo_eta(g, p, trials=500, seed=42)
        assert a == b
        # another seed starts another stream; some seed in a short scan must
        # move the histogram
        assert any(
            monte_carlo_eta(g, p, trials=500, seed=s) != a for s in range(43, 53)
        )

    def test_histogram_and_mean(self):
        p = Params(n=9, k=2, s=2)
        g = star_blocks(p)
        rep = monte_carlo_eta(g, p, trials=2000, seed=7)
        assert sum(rep.eta_histogram.values()) == rep.trials == 2000
        recomputed = Fraction(
            sum(eta * c for eta, c in rep.eta_histogram.items()), rep.trials
        )
        assert rep.empirical_mean == recomputed

    def test_constant_eta_when_alpha_one(self):
        p = Params(n=8, k=3, s=1)
        g = block_layer(p)
        rep = monte_carlo_eta(g, p, trials=300, seed=3)
        assert rep.alpha == 1
        assert set(rep.eta_histogram) == {rep.t}
        assert all(bt.tail_count == 0 for bt in rep.beta_grid)

    def test_mean_close_to_exact(self):
        p = Params(n=10, k=3, s=1)
        g = star_blocks(p)
        rep = monte_carlo_eta(g, p, trials=20_000, seed=11)
        expect = layer_density(g, p) * rep.t
        assert abs(rep.empirical_mean - expect) < Fraction(1, 10)

    def test_tail_within_bound_slack(self):
        p = Params(n=12, k=2, s=1)
        rng = random.Random(101)
        layer = block_layer(p)
        members = [m for m in layer.members if rng.random() < 0.5]
        g = SetFamily.from_masks(p.n, p.k - 1, members)
        rep = monte_carlo_eta(g, p, trials=20_000, seed=13)
        for bt in rep.beta_grid:
            assert float(bt.tail_freq) <= bt.bound + 4 * math.sqrt(bt.bound / rep.trials)
            assert bt.bound == pytest.approx(tail_bound(bt.beta))
            assert bt.threshold == pytest.approx(2 * bt.beta * math.sqrt(rep.t))

    def test_explicit_grid_and_validation(self):
        p = Params(n=9, k=2, s=2)
        g = star_blocks(p)
        rep = monte_carlo_eta(g, p, trials=100, seed=1, beta_grid=(0.5, 2.5))
        assert tuple(bt.beta for bt in rep.beta_grid) == (0.5, 2.5)
        with pytest.raises(ShapeError):
            monte_carlo_eta(g, p, trials=0, seed=1)

    def test_pinned_histogram(self):
        # a seeded histogram; a sampler change must keep it
        p = Params(n=20, k=3, s=2)
        rng = random.Random(3)
        g = SetFamily.from_masks(p.n, 2, [m for m in block_layer(p).members if rng.random() < 0.4])
        rep = monte_carlo_eta(g, p, trials=400, seed=12)
        assert len(g) == 47 and rep.t == 5
        assert rep.eta_histogram == {0: 57, 1: 121, 2: 134, 3: 66, 4: 19, 5: 3}
        assert rep.empirical_mean == Fraction(339, 200)
        assert [bt.tail_count for bt in rep.beta_grid] == [22, 0, 0, 0, 0]

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_bad_beta_refused_before_any_draw(self, beta, monkeypatch):
        p = Params(n=9, k=2, s=2)
        g = star_blocks(p)
        monkeypatch.setattr("emcverify.concentration.matching_draws", None)
        with pytest.raises(ShapeError, match="need finite betas >= 0"):
            monte_carlo_eta(g, p, trials=10, seed=1, beta_grid=(0.5, beta))

    def test_beta_past_the_double_range_of_the_cutoff(self):
        # 2*beta*sqrt(t) overflows to inf, which no eta reaches
        p = Params(n=9, k=2, s=2)
        rep = monte_carlo_eta(star_blocks(p), p, trials=50, seed=1, beta_grid=(0.0, 1e308))
        assert [bt.tail_count for bt in rep.beta_grid] == [50, 0]
        assert rep.beta_grid[1].threshold == math.inf

    def test_default_grid(self):
        assert default_beta_grid(1) == (0.5, 1.0, 2.0, 3.0)
        grid = default_beta_grid(9)
        assert grid[:4] == (0.5, 1.0, 2.0, 3.0)
        assert grid[4] == pytest.approx(5 * math.sqrt(math.log(9)))


class TestGammaThreshold:
    def test_frozen_value(self):
        assert gamma_threshold(100, 3) == pytest.approx(10 * math.sqrt(100 * math.log(3)))
        assert gamma_threshold(100, 3) == pytest.approx(104.8147, abs=1e-3)
        assert gamma_threshold(1, 2) == pytest.approx(10 * math.sqrt(math.log(2)))

    def test_monotone(self):
        assert gamma_threshold(200, 3) > gamma_threshold(100, 3)
        assert gamma_threshold(100, 5) > gamma_threshold(100, 3)

    def test_validation(self):
        with pytest.raises(ShapeError):
            gamma_threshold(0, 3)
        with pytest.raises(ShapeError):
            gamma_threshold(10, 1)

    @pytest.mark.parametrize("t, s", [(10**306, 10**300), (10**400, 10**400)])
    def test_past_the_double_range(self, t, s):
        # t ln s overflows to inf in the first case; t has no double in the second
        with pytest.raises(ShapeError, match="passes the largest double"):
            gamma_threshold(t, s)


class TestEventProbe:
    def families_with_empty_tops(self, p: Params):
        f = SetFamily.from_sets(p.n, p.k, [(1, p.x_first)])
        return tuple(f for _ in range(p.s + 1))

    def test_e2_zero_when_tops_empty(self):
        p = Params(n=12, k=2, s=2)
        fams = self.families_with_empty_tops(p)
        freq_e1, freq_e2 = event_probe(fams, p, trials=200, seed=5)
        assert freq_e2 == 0
        assert 0 <= freq_e1 <= 1

    def test_full_families_hit_both(self):
        p = Params(n=10, k=2, s=2)
        full = SetFamily.from_masks(10, 2, enumerate_ksets(10, 2))
        fams = (full, full, full)
        freq_e1, freq_e2 = event_probe(fams, p, trials=100, seed=6)
        assert freq_e2 == 1
        assert freq_e1 == 1  # counts sit exactly at alpha*t, well within gamma

    def test_deterministic(self):
        p = Params(n=12, k=2, s=2)
        fams = self.families_with_empty_tops(p)
        assert event_probe(fams, p, trials=150, seed=9) == event_probe(
            fams, p, trials=150, seed=9
        )

    def test_zero_length_matching_takes_gamma_zero(self):
        # n' = 2 < k gives t = 0, where gamma_threshold is undefined; the
        # default gamma of 0 applies, as in the engine, and every count sits at 0
        p = Params(n=5, k=3, s=2)
        f = SetFamily.from_sets(5, 3, [(1, 4, 5)])
        assert event_probe((f, f, f), p, 3, 1) == (1, 0)

    @pytest.mark.parametrize("params", [Params(n=30, k=3, s=5), Params(n=12, k=4, s=2)])
    def test_params_must_match_the_tuple(self, params, monkeypatch):
        # three 3-uniform families on [12] make s = 2: refused before any draw
        f = SetFamily.from_sets(12, 3, [(1, 5, 6), (2, 7, 8), (3, 9, 10)])
        monkeypatch.setattr("emcverify.concentration.matching_draws", None)
        with pytest.raises(ShapeError, match="does not match the tuple's n=12, k=3, s=2"):
            event_probe((f, f, f), params, trials=50, seed=1)

    @pytest.mark.parametrize("gamma", [None, 0, 0.75])
    def test_matches_a_per_slice_recount(self, gamma):
        # the same draws, recounted slice by slice against |count - alpha*t| <= gamma
        p = Params(n=13, k=3, s=2)
        rng = random.Random(17)
        layer = list(enumerate_ksets(p.n, p.k))
        fams = tuple(SetFamily.from_masks(p.n, p.k, [m for m in layer if rng.random() < 0.3])
                     for _ in range(p.s + 1))
        slices = [[set(slice_family(f, j, p.s).members) for j in range(1, p.s + 2)] for f in fams]
        denom = binomial(p.n_prime, p.k - 1)
        slack = Fraction(default_gamma(p.t, p.s) if gamma is None else gamma)
        trials, seed = 300, 23
        e1 = e2 = 0
        for blocks in itertools.islice(matching_draws(p, seed), trials):
            counts = [[sum(b in part for b in blocks) for part in row] for row in slices]
            e1 += all(abs(c - Fraction(len(part), denom) * p.t) <= slack
                      for row, crow in zip(slices, counts) for part, c in zip(row, crow))
            e2 += any(crow[-1] for crow in counts)
        got = event_probe(fams, p, trials, seed, gamma=gamma)
        assert got == (Fraction(e1, trials), Fraction(e2, trials))
        if gamma == 0.75:
            assert 0 < e1 < trials and 0 < e2 < trials

    def test_pinned_frequencies(self):
        # seeded (E1, E2); a sampler change must keep them
        p = Params(n=13, k=3, s=2)
        rng = random.Random(17)
        layer = list(enumerate_ksets(p.n, p.k))
        fams = tuple(SetFamily.from_masks(p.n, p.k, [m for m in layer if rng.random() < 0.3])
                     for _ in range(p.s + 1))
        assert event_probe(fams, p, 500, 31, gamma=0.75) == (Fraction(1, 50), Fraction(114, 125))
        assert event_probe(fams, p, 500, 31) == (1, Fraction(114, 125))
