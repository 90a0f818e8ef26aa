"""random_matchings: random block matchings set against fixed families, in-process.

Monte Carlo eta over a grid of n', k and G-density, event probes on
(s+1)-tuples, the exact eta law by enumeration, single matching draws, and
the rearrangement procedure against matchings the benchmark draws itself.
Monte Carlo outputs are checked by invariants only, so a change of the
library's random stream keeps them valid; everything else is exact.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from emcverify.concentration import event_probe, exact_eta_distribution, monte_carlo_eta
from emcverify.core import Params, SetFamily
from emcverify.densities import alpha_profile
from emcverify.engine import attempt_rainbow_procedure
from emcverify.matchings import sample_matching

from .. import oracles
from ..cases import Case, Workload, check, exact

S = 2  # matching parameter of the Monte Carlo and probe grids
MC_TRIALS = 100
PROBE_TRIALS = 50
MC_N_PRIME = (9, 16, 25, 40)
# (14, 3, 1) enumerates 51,975 matchings per call.  It is the slowest case
# and more than 1% of a pass, so the p99 latency falls inside it.
EXACT_GRID = [(14, 3, 1), (13, 3, 1), (16, 2, 1), (12, 3, 1), (15, 2, 2)]
# Single draws are the fastest cases.  There are fewer of them than Monte
# Carlo and probe cases, so the median latency falls on the latter.
SAMPLE_DRAWS = 20
PROCEDURE_CASES = 6
PROCEDURE_SHAPE = (30, 3, 2)


def _blocks(p: Params) -> list[int]:
    return [oracles.mask_of(c) for c in itertools.combinations(p.x_elements(), p.k - 1)]


def _g_family(rng: random.Random, p: Params, density: str) -> SetFamily:
    layer = _blocks(p)
    if density == "sparse":
        chosen = rng.sample(layer, max(1, len(layer) // 20))
    elif density == "star":
        chosen = [b for b in layer if b >> (p.x_first - 1) & 1]
    else:
        chosen = rng.sample(layer, len(layer) // 2)
    return SetFamily.from_masks(p.n, p.k - 1, chosen)


def _alpha(g: SetFamily, p: Params) -> Fraction:
    return Fraction(len(g), math.comb(p.n_prime, p.k - 1))


def _mc_case(rng, n_prime, k, density) -> Case:
    p = Params(n_prime + S + 1, k, S)
    g = _g_family(rng, p, density)
    seed = rng.randrange(1 << 30)
    alpha = _alpha(g, p)

    def run(tr):
        rep = tr.call("concentration.monte_carlo_eta", monte_carlo_eta, g, p, MC_TRIALS, seed)
        tr.count("concentration.monte_carlo_eta.trials", MC_TRIALS)
        hist = rep.eta_histogram
        check(sum(hist.values()) == MC_TRIALS, "histogram total != trials")
        check(all(0 <= eta <= p.t for eta in hist), "eta outside [0, t]")
        check(rep.alpha == alpha and rep.t == p.t, "alpha or t differs from |G|/C(n',k-1)")
        check(rep.empirical_mean == Fraction(sum(e * c for e, c in hist.items()), MC_TRIALS),
              "empirical mean disagrees with the histogram")
        if density == "star":  # blocks are disjoint, so at most one contains x_first
            check(max(hist) <= 1, "a star family met a matching twice")
        for tail in rep.beta_grid:
            gate = tail.bound + 4 * math.sqrt(tail.bound / MC_TRIALS)
            check(float(tail.tail_freq) <= gate, f"tail at beta={tail.beta} above the gate")
        return exact([alpha, p.t, len(rep.beta_grid)])

    return Case("monte_carlo", {"n_prime": n_prime, "k": k, "density": density}, run)


def _probe_case(rng, n, variant) -> Case:
    k = 3
    p = Params(n, k, S)
    layer = [oracles.mask_of(c) for c in itertools.combinations(range(1, n + 1), k)]
    top = 1 << S  # element s+1
    fams = []
    for i in range(S + 1):
        if variant == "no-top":
            members = [m for m in layer if not m & top and rng.random() < 0.3]
        elif variant == "full-top" and i == 0:
            members = [m for m in layer if m & ((top << 1) - 1) == top]
        else:
            members = [m for m in layer if rng.random() < 0.3]
        fams.append(SetFamily.from_masks(n, k, members))
    fams = tuple(fams)
    seed = rng.randrange(1 << 30)
    prefix = (1 << (S + 1)) - 1
    denom = math.comb(p.n_prime, k - 1)
    expected_alpha = [
        [Fraction(sum(1 for m in f.members if m & prefix == 1 << (j - 1)), denom)
         for j in range(1, S + 2)]
        for f in fams
    ]

    def run(tr):
        prof = tr.call("densities.alpha_profile", alpha_profile, fams)
        check([list(row) for row in prof.alpha] == expected_alpha, "alpha profile != slice counts")
        e1, e2 = tr.call("concentration.event_probe", event_probe, fams, p, PROBE_TRIALS, seed)
        tr.count("concentration.event_probe.trials", PROBE_TRIALS)
        for f in (e1, e2):
            check(0 <= f <= 1 and (f * PROBE_TRIALS).denominator == 1, "event frequency not k/trials")
        if variant == "no-top":
            check(e2 == 0, "E2 fired with every top slice empty")
        if variant == "full-top":
            check(e2 == 1, "E2 missed a full top slice")
        return exact([prof.alpha, prof.alpha_empty])

    return Case("event_probe", {"n": n, "k": k, "s": S, "variant": variant}, run)


def _exact_case(rng, n, k, s) -> Case:
    p = Params(n, k, s)
    g = _g_family(rng, p, "half")
    alpha = _alpha(g, p)
    count = oracles.matching_count(p.n_prime, k - 1, p.t)

    def run(tr):
        dist = tr.call("concentration.exact_eta_distribution", exact_eta_distribution, g, p)
        tr.count("concentration.exact_eta_distribution.matchings", count)
        check(sum(dist.values()) == 1, "exact law does not sum to 1")
        check(all((q * count).denominator == 1 for q in dist.values()), "probability not k/#matchings")
        mean = sum((eta * q for eta, q in dist.items()), Fraction(0))
        check(mean == alpha * p.t, f"exact mean {mean} != alpha*t = {alpha * p.t}")
        return exact(dict(dist))

    return Case("exact_eta", {"n": n, "k": k, "s": s}, run)


def _draw_case(rng, i: int) -> Case:
    # Stratified over i: n' spreads evenly over 9..40 and (k, s) cycle.
    n_prime, k, s = 9 + 31 * i // (SAMPLE_DRAWS - 1), (2, 3, 4)[i % 3], (1, 2, 3)[i // 3 % 3]
    p = Params(n_prime + s + 1, k, s)
    seed = rng.randrange(1 << 30)

    def run(tr):
        m = tr.call("matchings.sample_matching", sample_matching, p, seed)
        covered = 0
        for b in m.members:
            check(not b & covered and not b & ~p.x_mask, "blocks overlap or leave X")
            covered |= b
        check(len(m) == p.t and m.k == k - 1, "wrong number or size of blocks")
        return [len(m), m.k]

    return Case("sample_matching", {"n": p.n, "k": k, "s": s}, run)


def _procedure_tuple(rng, density_prefix, density_rest):
    n, k, s = PROCEDURE_SHAPE
    prefix = (1 << (s + 1)) - 1
    layer = [oracles.mask_of(c) for c in itertools.combinations(range(1, n + 1), k)]
    return tuple(
        SetFamily.from_masks(n, k, [
            m for m in layer
            if rng.random() < (density_prefix if m & prefix else density_rest)
        ])
        for _ in range(s + 1)
    )


def _draw_matching(rng, p: Params) -> SetFamily:
    pool = list(p.x_elements())
    rng.shuffle(pool)
    blk = p.k - 1
    return SetFamily.from_masks(p.n, blk, [oracles.mask_of(pool[i * blk:(i + 1) * blk])
                                          for i in range(p.t)])


def _procedure_case(rng, families, label) -> Case:
    n, k, s = PROCEDURE_SHAPE
    p = Params(n, k, s)
    matching = _draw_matching(rng, p)
    fam_sets = [set(f.members) for f in families]
    blocks = set(matching.members)

    def run(tr):
        trace = tr.call("engine.attempt_rainbow_procedure", attempt_rainbow_procedure,
                        families, matching)
        tr.count("engine.attempt_rainbow_procedure." + trace.outcome.replace("-", "_"))
        check(trace.outcome in ("rainbow-found", "step2-failed", "assumptions-unmet"),
              f"unexpected outcome {trace.outcome}")
        if trace.outcome == "rainbow-found":
            check(oracles.valid_rainbow(fam_sets, trace.witness), "procedure witness invalid")
            prefix = (1 << (s + 1)) - 1
            check(all((w & prefix).bit_count() == 1 and w & ~prefix in blocks
                      for w in trace.witness),
                  "witness member is not a matching block plus one prefix element")
        if trace.outcome == "step2-failed":
            check(1 <= trace.failed_index <= trace.s1, "step-2 failure outside the front block")
        return [trace.outcome, list(trace.order), trace.s1, trace.r, trace.failed_index,
                list(trace.witness) if trace.witness else None]

    return Case("procedure", {"n": n, "k": k, "s": s, "tuple": label}, run)


def build(seed: int, workdir, src) -> Workload:
    rng = random.Random(seed)
    cases = [_mc_case(rng, n_prime, k, d)
             for n_prime in MC_N_PRIME for k in (2, 3) for d in ("sparse", "star", "half")]
    cases += [_probe_case(rng, n, v) for n in (15, 20) for v in ("random", "no-top", "full-top")]
    cases += [_exact_case(rng, *shape) for shape in EXACT_GRID]
    cases += [_draw_case(rng, i) for i in range(SAMPLE_DRAWS)]
    tuples = {"dense": _procedure_tuple(rng, 0.3, 0.05), "sparse": _procedure_tuple(rng, 0.08, 0.02)}
    cases += [_procedure_case(rng, tuples[label], label)
              for label in ("dense", "sparse") for _ in range(PROCEDURE_CASES // 2)]
    rng.shuffle(cases)
    return Workload(cases, spawn_reference="import numpy")
