"""verify_suite: the statement verifiers of acceptance 02/03/06/07, in-process.

Five case kinds, interleaved: prefix-condition families through the shadow
verifiers, random families through shift closure, desk EMC and rainbow-EMC
grid points, Hall instances at n = 12, and a matching-number ladder on the
extremal families A and B.
"""

from __future__ import annotations

import hashlib
import math
import random

from emcverify.constructions import build_extremal
from emcverify.core import Params, SetFamily, family_to_text, parse_family_text
from emcverify.densities import local_lym_ratio, verify_lemma4, verify_theorem3
from emcverify.matchings import find_rainbow, hall_rainbow_in_matching, matching_number
from emcverify.transforms import (
    bt_check,
    enumerate_shifted_families,
    is_shifted,
    kk_min_shadow_size,
    lower_shadow,
    shift_closure,
)

from .. import oracles
from ..cases import Case, Workload, check, exact

CONDITION_CASES = 60
RANDOM_FAMILY_CASES = 16
HALL_CASES = 12
# The ladder climbs until one matching_number call costs about 0.1 s.  The
# cost keeps climbing steeply: A(40,3,3) (2,110 members, nu = 3) took 265 s
# for one call, against 40 ms for A(20,3,2).  The top rung of A runs twice
# per pass, so that the p99 latency falls inside that group of cases.
LADDER = [(10, 3, 1), (12, 3, 2), (15, 3, 2), (14, 3, 3), (16, 3, 3), (17, 3, 3)]
CLASSIC_GRID = [(n, s) for s in (1, 2) for n in range(2 * (s + 1), 10)]
RAINBOW_GRID = [(n, 1) for n in range(4, 8)] + [(6, 2)]


def _round_trip(tr, fam: SetFamily) -> SetFamily:
    """Write the input as a family file's text and read it back, as a CLI user does."""
    text = tr.call("core.family_to_text", family_to_text, fam)
    tr.count("core.bytes_parsed", len(text))
    back = tr.call("core.parse_family_text", parse_family_text, text)
    check(back == fam, "family text round trip changed the family")
    return back


def _ell_ok(mask: int, s: int, k: int) -> bool:
    els = oracles.elements(mask)
    return any(sum(1 for e in els if e <= 3 * (s + 1) * ell - 1) >= ell for ell in range(1, k + 1))


def _random_ksets(rng: random.Random, n: int, k: int, size: int, keep=lambda m: True) -> list[int]:
    chosen: set[int] = set()
    population = range(1, n + 1)
    while len(chosen) < size:
        m = oracles.mask_of(rng.sample(population, k))
        if keep(m):
            chosen.add(m)
    return sorted(chosen)


def _condition_case(rng: random.Random, i: int) -> tuple[Case, SetFamily]:
    # Stratified over i, so that a pass costs about the same for every seed:
    # (s, k) cycles through its six values and sizes spread evenly over 1..40.
    s, k = (1, 2, 3)[i % 3], (2, 3)[i // 3 % 2]
    n = 3 * (s + 1) * k + rng.randint(-1, 2)
    size = 1 + 39 * (i // 6) // (CONDITION_CASES // 6 - 1)
    fam = SetFamily(n, k, tuple(_random_ksets(rng, n, k, size, lambda m: _ell_ok(m, s, k))))
    thresholds = tuple(3 * (s + 1) * i - 1 for i in range(1, k + 1))

    def run(tr):
        f = _round_trip(tr, fam)
        lhs, rhs, ok4 = tr.call("densities.verify_lemma4", verify_lemma4, f, s)
        beta, ok3 = tr.call("densities.verify_theorem3", verify_theorem3, f, 1, thresholds)
        lym = tr.call("densities.local_lym_ratio", local_lym_ratio, f)
        bt = tr.call("transforms.bt_check", bt_check, f, k + 1)
        shadow = tr.call("transforms.lower_shadow", lower_shadow, f, 1)
        tr.count("transforms.lower_shadow.sets_out", len(shadow))
        floor = tr.call("transforms.kk_min_shadow_size", kk_min_shadow_size, n, k, size, "lower")
        check(ok4 and ok3 and lym and bt.verdict, "a shadow verifier returned false")
        check(lhs == (3 * s + 2) * len(shadow) and rhs == size, "lemma 4 sides disagree with the shadow")
        check(len(shadow) >= floor, "lower shadow below the Kruskal-Katona floor")
        return exact([lhs, rhs, beta, len(shadow), floor, bt.shadow_size])

    return Case("condition", {"n": n, "k": k, "s": s, "size": size}, run), fam


def _random_family_case(rng: random.Random, i: int) -> tuple[Case, SetFamily]:
    # Stratified like the condition cases: n over 8..14, k in {2, 3}, and
    # sizes evenly over 5..200 (capped by the layer).
    n, k = 8 + i * 7 // RANDOM_FAMILY_CASES, (2, 3)[i % 2]
    size = min(5 + 195 * (i * 5 % RANDOM_FAMILY_CASES) // (RANDOM_FAMILY_CASES - 1), math.comb(n, k))
    fam = SetFamily(n, k, tuple(_random_ksets(rng, n, k, size)))

    def run(tr):
        f = _round_trip(tr, fam)
        rep = tr.call("transforms.shift_closure", shift_closure, f)
        tr.count("transforms.shift_closure.applied", rep.applied)
        res = rep.result
        shifted = tr.call("transforms.is_shifted", is_shifted, res)
        nu0 = tr.call("matchings.matching_number", matching_number, f)
        nu1 = tr.call("matchings.matching_number", matching_number, res)
        check(len(res) == size and shifted, "shift closure lost members or is not shifted")
        check(nu1 <= nu0, "shifting raised the matching number")
        digest = hashlib.sha256(repr(res.members).encode()).hexdigest()[:16]
        return [size, rep.applied, nu0, nu1, digest]

    return Case("shift", {"n": n, "k": k, "size": size}, run), fam


def _classic_case(n: int, s: int) -> Case:
    expected = max(oracles.extremal_sizes(n, 2, s))

    def run(tr):
        fams = tr.call("transforms.enumerate_shifted_families",
                       lambda: list(enumerate_shifted_families(n, 2)))
        tr.count("transforms.enumerate_shifted_families.families_out", len(fams))
        best = 0
        for f in fams:
            if len(f) > best and tr.call("matchings.matching_number", matching_number, f) <= s:
                best = len(f)
        check(best == expected, f"classic maximum {best} != max(|A|,|B|) = {expected}")
        return [len(fams), best]

    return Case("emc", {"n": n, "k": 2, "s": s}, run)


def _rainbow_case(n: int, s: int) -> Case:
    expected = max(oracles.extremal_sizes(n, 2, s))

    def run(tr):
        fams = tr.call("transforms.enumerate_shifted_families",
                       lambda: list(enumerate_shifted_families(n, 2)))
        tr.count("transforms.enumerate_shifted_families.families_out", len(fams))
        fams.sort(key=len, reverse=True)
        best = 0
        chosen = []

        # Nondecreasing index tuples over the size-sorted list; a branch stops
        # once its family cannot beat the best minimum size found so far.
        def rec(start):
            nonlocal best
            for i in range(start, len(fams)):
                if len(fams[i]) <= best:
                    break
                chosen.append(fams[i])
                if len(chosen) == s + 1:
                    w = tr.call("matchings.find_rainbow", find_rainbow, tuple(chosen))
                    if w.complete:
                        tr.count("matchings.find_rainbow.complete")
                        check(oracles.valid_rainbow([set(f.members) for f in chosen], w.assignment),
                              "find_rainbow returned an invalid witness")
                    else:
                        best = len(fams[i])
                else:
                    rec(i)
                chosen.pop()

        rec(0)
        check(best == expected, f"rainbow max-min {best} != max(|A|,|B|) = {expected}")
        return [len(fams), best]

    return Case("rainbow_emc", {"n": n, "k": 2, "s": s}, run)


def _hall_case(rng: random.Random) -> tuple[Case, tuple]:
    pool = list(range(1, 13))
    m_size = rng.randint(1, 6)
    rng.shuffle(pool)
    blocks = sorted(oracles.mask_of(pool[2 * i:2 * i + 2]) for i in range(m_size))
    matching = SetFamily(12, 2, tuple(blocks))
    slices = [[b for b in blocks if rng.random() < 0.5] for _ in range(rng.randint(1, m_size + 1))]
    families = tuple(SetFamily(12, 2, tuple(sl)) for sl in slices)

    def run(tr):
        m = _round_trip(tr, matching)
        w = tr.call("matchings.hall_rainbow_in_matching", hall_rainbow_in_matching, families, m)
        if w.complete:
            check(len(set(w.assignment)) == len(families)
                  and all(b in set(sl) for b, sl in zip(w.assignment, slices)),
                  "Hall witness uses a block twice or outside its family")
        return [w.complete]

    return Case("hall", {"n": 12, "blocks": m_size, "families": len(slices)}, run), (slices, blocks)


def _ladder_case(kind: str, n: int, k: int, s: int) -> Case:
    size = oracles.extremal_sizes(n, k, s)[0 if kind == "A" else 1]

    def run(tr):
        fam = tr.call("constructions.build_extremal", build_extremal, Params(n, k, s), kind)
        tr.count("constructions.build_extremal.members_out", len(fam))
        f = _round_trip(tr, fam)
        nu = tr.call("matchings.matching_number", matching_number, f)
        check(len(f) == size, f"|{kind}| = {len(f)}, expected {size}")
        check(nu == s, f"nu({kind}) = {nu}, expected s = {s}")
        return [len(f), nu]

    return Case("ladder", {"kind": kind, "n": n, "k": k, "s": s}, run)


def build(seed: int, workdir, src) -> Workload:
    rng = random.Random(seed)
    pairs = [_condition_case(rng, i) for i in range(CONDITION_CASES)]
    pairs += [_random_family_case(rng, i) for i in range(RANDOM_FAMILY_CASES)]
    pairs += [_hall_case(rng) for _ in range(HALL_CASES)]
    fixed = [_classic_case(n, s) for n, s in CLASSIC_GRID]
    fixed += [_rainbow_case(n, s) for n, s in RAINBOW_GRID]
    fixed += [_ladder_case(kind, *p) for p in LADDER for kind in "AB"]
    fixed.append(_ladder_case("A", *LADDER[-1]))
    pairs += [(c, None) for c in fixed]
    rng.shuffle(pairs)
    cases = [c for c, _ in pairs]
    inputs = [inp for _, inp in pairs]
    workload = Workload(cases, speed_probe="memo")
    workload.post_check = lambda records: _post_check(cases, inputs, records)
    return workload


# Cases checked against the brute-force oracles after the timed loop.
ORACLE_STRIDE = 4


def _post_check(cases, inputs, records):
    bad = []
    for i, case in enumerate(cases):
        # The stride sample, plus every shift case small enough for brute-force nu.
        small_shift = case.kind == "shift" and case.params["size"] <= 40
        if (i % ORACLE_STRIDE and not small_shift) or i not in records:
            continue
        rec, inp, p = records[i], inputs[i], case.params
        if case.kind == "condition":
            members = inp.members
            shadow = oracles.lower_shadow(members, 1)
            if rec[3] != len(shadow):
                bad.append((i, f"lower shadow size {rec[3]} != brute force {len(shadow)}"))
            if rec[4] != oracles.kk_lower_floor(p["k"], p["size"]):
                bad.append((i, f"Kruskal-Katona floor {rec[4]} != cascade value"))
            if rec[5] != oracles.upper_shadow_size(members, p["n"]):
                bad.append((i, "upper shadow size in bt_check != brute force"))
        elif small_shift:
            nu = oracles.matching_number(inp.members)
            if rec[2] != nu:
                bad.append((i, f"matching number {rec[2]} != brute force {nu}"))
        elif case.kind == "hall":
            slices, blocks = inp
            brute = oracles.hall_assignment([set(sl) for sl in slices], blocks)
            if rec[0] != (brute is not None):
                bad.append((i, f"Hall completeness {rec[0]} != brute force"))
    return bad
