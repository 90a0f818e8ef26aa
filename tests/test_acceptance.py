"""The ten acceptance gates, one printed verdict line each.

Each test computes its verdict, prints ``ACCEPTANCE nn PASS|FAIL (time)``
on the real stdout (visible under pytest capture), records it in RESULTS,
and then asserts.  Criterion 10 is the meta-check: it reads RESULTS and
confirms that the desk-scale substitutes for the paper-scale statement all
held, and that materializing paper-scale families genuinely overflows the
construction guard.
"""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_hall_assignment, law_mean
from emcverify.constructions import classic_max_bounded_nu, rainbow_max_min_size
from emcverify.concentration import (
    exact_eta_distribution,
    layer_density,
    monte_carlo_eta,
)
from emcverify.constructions import build_extremal, size_A_layered, size_extremal
from emcverify.core import Params, SetFamily, ShapeError, binomial
from emcverify.densities import (
    ell_condition,
    random_condition_family,
    verify_lemma4,
    verify_theorem3,
)
from emcverify.engine import audit_inequalities
from emcverify.matchings import find_rainbow, hall_rainbow_in_matching, matching_number
from emcverify.transforms import enumerate_ksets, enumerate_shifted_families, shift_ij

RESULTS: dict[int, bool] = {}


def _finish(num: int, label: str, started: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - started
    RESULTS[num] = bool(ok)
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} ({elapsed:6.2f}s): {label}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {label} {detail}".rstrip()


def test_criterion_01_extremal_sizes():
    started = time.perf_counter()
    checked = 0
    ok = True
    for k in range(1, 6):
        for n in range(k, 31):
            for s in range(0, 11):
                p = Params(n=n, k=k, s=s)
                a = size_extremal(p, "A")
                ok = ok and a == binomial(n, k) - binomial(max(n - s, 0), k)
                if s == 0 or n >= s + k:
                    ok = ok and size_A_layered(p) == a
                if n >= (s + 1) * k - 1:
                    ok = ok and size_extremal(p, "B") == binomial((s + 1) * k - 1, k)
                checked += 1
    elapsed = time.perf_counter() - started
    _finish(1, f"extremal sizes exact on {checked} grid points, {elapsed:.3f}s < 1s",
            started, ok and elapsed < 1.0)


def test_criterion_02_emc_desk_scale():
    started = time.perf_counter()
    ok = True
    rows = []
    for s in (1, 2):
        for n in range(2 * (s + 1), 10):
            p = Params(n=n, k=2, s=s)
            expected = max(size_extremal(p, "A"), size_extremal(p, "B"))
            found = classic_max_bounded_nu(n, 2, s)
            rows.append((n, s, expected, found))
            ok = ok and found == expected
    # the boundary tie: both constructions meet at n = (s+1)k
    tie = Params(n=4, k=2, s=1)
    ok = ok and size_extremal(tie, "A") == size_extremal(tie, "B") == 3
    ok = ok and any(r == (4, 1, 3, 3) for r in rows)
    elapsed = time.perf_counter() - started
    _finish(2, f"classic max == max(|A|,|B|) on {len(rows)} points, {elapsed:.2f}s < 60s",
            started, ok and elapsed < 60.0, detail=str(rows))


def test_criterion_03_rainbow_emc_desk_scale():
    started = time.perf_counter()
    ok = True
    rows = []
    for n in (4, 5, 6):
        p = Params(n=n, k=2, s=1)
        expected = max(size_extremal(p, "A"), size_extremal(p, "B"))
        found = rainbow_max_min_size(n, 2, 1)
        rows.append((n, expected, found))
        ok = ok and found == expected
    elapsed = time.perf_counter() - started
    _finish(3, f"rainbow max-min == max(|A|,|B|) at n=4,5,6: {rows}, {elapsed:.2f}s < 600s",
            started, ok and elapsed < 600.0)


def _block_layer(p: Params) -> SetFamily:
    combos = itertools.combinations(p.x_elements(), p.k - 1)
    return SetFamily.from_sets(p.n, p.k - 1, combos)


def _star_blocks(p: Params) -> SetFamily:
    combos = [c for c in itertools.combinations(p.x_elements(), p.k - 1)
              if p.x_first in c]
    return SetFamily.from_sets(p.n, p.k - 1, combos)


def test_criterion_04_exact_mean():
    started = time.perf_counter()
    rng = random.Random(0xACCE)
    instances = 0
    ok = True
    for p in (Params(6, 2, 1), Params(7, 2, 1), Params(8, 2, 2), Params(9, 2, 2),
              Params(8, 3, 1), Params(9, 3, 2)):
        layer = _block_layer(p)
        halfish = SetFamily.from_masks(
            p.n, p.k - 1, rng.sample(layer.members, len(layer) // 2))
        thirdish = SetFamily.from_masks(
            p.n, p.k - 1, rng.sample(layer.members, max(1, len(layer) // 3)))
        for g in (SetFamily(p.n, p.k - 1, ()), layer, _star_blocks(p), halfish, thirdish):
            dist = exact_eta_distribution(g, p)
            ok = ok and sum(dist.values()) == 1
            ok = ok and law_mean(dist) == layer_density(g, p) * p.t
            instances += 1
    # the designated star instance: n'=6, blocks of size 2, t=3, eta == 1
    p = Params(n=9, k=3, s=2)
    star = _star_blocks(p)
    dist = exact_eta_distribution(star, p, t=3)
    ok = ok and dist == {1: Fraction(1)}
    ok = ok and law_mean(dist) == layer_density(star, p) * 3
    instances += 1
    ok = ok and instances >= 20
    _finish(4, f"exact mean == alpha*t on {instances} instances (zero tolerance)",
            started, ok)


def test_criterion_05_tail_bound_monte_carlo():
    started = time.perf_counter()
    trials = 100_000
    grid = (0.5, 1.0, 1.5, 2.0, 3.0)
    suite = [
        (Params(9, 2, 2), SetFamily.from_sets(9, 1, [(4,), (5,)])),
        (Params(11, 3, 2), _star_blocks(Params(11, 3, 2))),
        (Params(10, 2, 2), _block_layer(Params(10, 2, 2))),
    ]
    ok = True
    for i, (p, g) in enumerate(suite):
        t0 = time.perf_counter()
        rep = monte_carlo_eta(g, p, trials=trials, seed=1000 + i, beta_grid=grid)
        per = time.perf_counter() - t0
        ok = ok and per < 30.0
        for entry in rep.beta_grid:
            slack = entry.bound + 4 * math.sqrt(entry.bound / trials)
            ok = ok and float(entry.tail_freq) <= slack
    _finish(5, f"MC tails within bound+4*sqrt(bound/trials) on {len(suite)}x{len(grid)} "
               f"grid points at 1e5 trials", started, ok)


def test_criterion_06_lemma4_theorem3_suites():
    started = time.perf_counter()
    rng = random.Random(0x5EED)
    ok = True
    random_checked = 0
    for s in (1, 2, 3):
        for k in (1, 2, 3):
            base = 3 * (s + 1) * k
            thresholds = tuple(3 * (s + 1) * i - 1 for i in range(1, k + 1))
            for n in range(base - 1, base + 5):
                p = Params(n=n, k=k, s=s)
                cap = sum(
                    1 for c in itertools.combinations(range(1, n + 1), k)
                    if ell_condition(sum(1 << (e - 1) for e in c), s, k)
                )
                cap = min(40, cap)
                for _ in range(1000):
                    fam = random_condition_family(p, rng.randint(1, cap), rng)
                    lhs, rhs, good = verify_lemma4(fam, s)
                    _, good3 = verify_theorem3(fam, 1, thresholds)
                    ok = ok and good and good3
                    random_checked += 1
    sweep_checked = 0
    for k in (1, 2, 3):
        for n in range(k, 7):
            for fam in enumerate_shifted_families(n, k):
                for s in (1, 2, 3):
                    if len(fam) == 0 or not all(
                        ell_condition(m, s, k) for m in fam.members
                    ):
                        continue
                    thresholds = tuple(3 * (s + 1) * i - 1 for i in range(1, k + 1))
                    _, _, good = verify_lemma4(fam, s)
                    _, good3 = verify_theorem3(fam, 1, thresholds)
                    ok = ok and good and good3
                    sweep_checked += 1
    elapsed = time.perf_counter() - started
    _finish(6, f"0 failures over {random_checked} random condition families and "
               f"{sweep_checked} exhaustive shifted checks, {elapsed:.1f}s < 120s",
            started, ok and elapsed < 120.0 and random_checked >= 54_000)


def test_criterion_07_hall_agreement():
    started = time.perf_counter()
    rng = random.Random(0x4A11)
    agree = 0
    total = 10_000
    pool = list(range(1, 13))
    for _ in range(total):
        m_size = rng.randint(1, 6)
        rng.shuffle(pool)
        blocks = sorted(
            SetFamily.from_sets(12, 2, [tuple(sorted(pool[2 * i:2 * i + 2]))
                                        for i in range(m_size)]).members
        )
        matching = SetFamily.from_masks(12, 2, blocks)
        n_fam = rng.randint(1, m_size + 1)
        fams = []
        slice_sets = []
        for _ in range(n_fam):
            hit = [b for b in blocks if rng.random() < 0.5]
            fams.append(SetFamily.from_masks(12, 2, hit))
            slice_sets.append(set(hit))
        witness = hall_rainbow_in_matching(tuple(fams), matching)
        brute = brute_hall_assignment(slice_sets, blocks)
        good = witness.complete == (brute is not None)
        if witness.complete:
            seen = set()
            for i, blk in enumerate(witness.assignment):
                good = good and blk in slice_sets[i] and blk not in seen
                seen.add(blk)
        agree += good
    _finish(7, f"Hall witness agrees with exhaustive assignment on {agree}/{total} "
               f"instances", started, agree == total)


def test_criterion_08_arithmetic_audit():
    started = time.perf_counter()
    ok = True
    # t-floor ("for s > 10"): every s in [11, 100] at k in {2, 3, 5}
    for s in range(11, 101):
        for k in (2, 3, 5):
            ok = ok and audit_inequalities(s, k, checks=["t-floor"]).all_passed
    frozen = audit_inequalities(11, 2, checks=["t-floor"])
    ok = ok and (frozen.n, frozen.n_prime, frozen.t) == (196, 184, 92)
    # gamma margin: the s0 = 2e6 threshold is real -- passes there, fails at 1e6
    for k in (2, 3, 5):
        ok = ok and audit_inequalities(2_000_000, k, checks=["gamma-margin"]).all_passed
    ok = ok and not audit_inequalities(1_000_000, 2, checks=["gamma-margin"]).all_passed
    # union bound for s > 20
    for s in itertools.chain(range(21, 201), (1000, 10**6)):
        ok = ok and audit_inequalities(s, 2, checks=["union-bound"]).all_passed
    # gap-set constants for s >= 50
    for s in itertools.chain(range(50, 151), (10**6,)):
        for k in (2, 3):
            ok = ok and audit_inequalities(
                s, k, checks=["gap-ratio", "gap-tail"]).all_passed
    # slice chains at full quantified ranges, paper scale
    for k in (2, 3, 5):
        ok = ok and audit_inequalities(
            2_000_000, k, checks=["slice-growth", "slice-indexed"]).all_passed
    elapsed = time.perf_counter() - started
    _finish(8, f"audit thresholds reproduced exactly, {elapsed:.1f}s < 10s",
            started, ok and elapsed < 10.0)


# --- criterion 9: exhaustive compression invariants over bitmask tables -----


def _pair_tables(n: int):
    """Member masks, disjointness masks, and per-(i,j) move maps at (n, 2)."""
    masks = list(enumerate_ksets(n, 2))
    index = {m: a for a, m in enumerate(masks)}
    disj = [
        sum(1 << b for b, mb in enumerate(masks) if not (mb & ma))
        for a, ma in enumerate(masks)
    ]
    shifts = []
    for j in range(2, n + 1):
        for i in range(1, j):
            bi, bj = 1 << (i - 1), 1 << (j - 1)
            moves = [
                (a, index[(m ^ bj) | bi])
                for a, m in enumerate(masks)
                if (m & bj) and not (m & bi)
            ]
            shifts.append(((i, j), moves))
    return masks, disj, shifts


def _nu_and_dep_tables(disj):
    """nu[F] and D[F] (members hit by something disjoint from F) for all F."""
    size = 1 << len(disj)
    nu = bytearray(size)
    dep = [0] * size
    for f in range(1, size):
        low = (f & -f).bit_length() - 1
        rest = f & (f - 1)
        with_low = 1 + nu[f & disj[low]]
        nu[f] = with_low if with_low > nu[rest] else nu[rest]
        dep[f] = dep[rest] | disj[low]
    return nu, dep


def _vector_shift(families: np.ndarray, moves) -> np.ndarray:
    """Simultaneous (i,j)-compression of every family at once."""
    add = np.zeros_like(families)
    delete = np.zeros_like(families)
    for a, target in moves:
        moving = ((families >> a) & 1) & (((families >> target) & 1) ^ 1)
        delete |= moving << a
        add |= moving << target
    return (families & ~delete) | add


def _family_int(fam: SetFamily, masks) -> int:
    index = {m: a for a, m in enumerate(masks)}
    return sum(1 << index[m] for m in fam.members)


def _int_family(f: int, n: int, masks) -> SetFamily:
    return SetFamily.from_masks(n, 2, [m for a, m in enumerate(masks) if f >> a & 1])


def test_criterion_09_compression_invariants():
    started = time.perf_counter()
    ok = True
    rng = random.Random(0x600D)
    for n in (4, 5, 6):
        masks, disj, shifts = _pair_tables(n)
        universe = len(masks)
        size = 1 << universe
        nu_table, dep_table = _nu_and_dep_tables(disj)
        families = np.arange(size, dtype=np.int64)
        nu_arr = np.frombuffer(bytes(nu_table), dtype=np.uint8)
        dep_arr = np.array(dep_table, dtype=np.int64)
        full = size - 1
        counts = np.bitwise_count(families.astype(np.uint64))
        for (i, j), moves in shifts:
            shifted = _vector_shift(families, moves)
            # (a) cardinality is preserved, exhaustively
            ok = ok and bool(
                np.array_equal(np.bitwise_count(shifted.astype(np.uint64)), counts)
            )
            # (b) nu never increases, exhaustively
            ok = ok and bool(np.all(nu_arr[shifted] <= nu_arr[families]))
            # (c) cross-dependence is preserved under the simultaneous shift:
            # F2 ranges over subsets of P = allowed partners of F1; a violation
            # survives iff a one- or two-member witness does (any violating
            # member of S(F2) is a moved image, an immovable stay, or a
            # blocked stay), so scanning witnesses is exhaustive over F2.
            allowed = ~dep_arr & full
            dep_star = dep_arr[shifted]
            movable_mask = 0
            for a, _ in moves:
                movable_mask |= 1 << a
            violation = (allowed & ~movable_mask & dep_star) != 0
            for a, target in moves:
                in_p = (allowed >> a) & 1
                violation |= (in_p & (dep_star >> target) & 1).astype(bool)
                violation |= (
                    in_p & (allowed >> target) & (dep_star >> a) & 1
                ).astype(bool)
            ok = ok and not bool(violation.any())
        # dual route: tie every table to the library primitives on samples
        for _ in range(120):
            f_int = rng.randrange(size)
            fam = _int_family(f_int, n, masks)
            (i, j), moves = shifts[rng.randrange(len(shifts))]
            lib = _family_int(shift_ij(fam, i, j), masks)
            vec = int(_vector_shift(np.array([f_int], dtype=np.int64), moves)[0])
            ok = ok and lib == vec
            ok = ok and nu_table[f_int] == matching_number(fam)
            g_int = rng.randrange(size)
            table_dep = (g_int & dep_table[f_int]) == 0
            search_dep = not find_rainbow((fam, _int_family(g_int, n, masks))).complete
            ok = ok and table_dep == search_dep
    # full naive route at n = 4: every pair of families, every compression,
    # straight through the public API
    masks4, _, shifts4 = _pair_tables(4)
    all4 = [_int_family(f, 4, masks4) for f in range(1 << len(masks4))]
    for f1 in all4:
        for f2 in all4:
            if find_rainbow((f1, f2)).complete:
                continue
            for (i, j), _ in shifts4:
                s1, s2 = shift_ij(f1, i, j), shift_ij(f2, i, j)
                ok = ok and len(s1) == len(f1) and len(s2) == len(f2)
                ok = ok and not find_rainbow((s1, s2)).complete
    elapsed = time.perf_counter() - started
    _finish(9, f"compression invariants exhaustive at n<=6 (0 violations), "
               f"{elapsed:.1f}s", started, ok)


def test_criterion_10_paper_scale_substitution():
    started = time.perf_counter()
    needed = (2, 3, 4, 5, 6, 7, 8)
    if any(num not in RESULTS for num in needed):
        pytest.skip("criteria 2-8 must run in the same session for the meta-check")
    substituted = all(RESULTS[num] for num in needed)
    s0 = 2_000_000
    p = Params(n=(s0 + 1) * 2 - 1, k=2, s=s0)
    paper_scale_size = size_extremal(p, "B")
    too_big = paper_scale_size > 10**12
    try:
        build_extremal(p, "B")
        guarded = False
    except ShapeError:
        guarded = True
    _finish(10, "paper-scale families are out of reach "
                f"(|B| = {paper_scale_size} members, construction guard trips); "
                "criteria 2-8 stand in for them",
            started, substituted and too_big and guarded)
