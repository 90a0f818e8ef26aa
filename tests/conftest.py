"""Shared brute-force oracles, deliberately independent of the library code.

Every oracle here recomputes its answer from definitions with itertools-style
enumeration, so library results are checked against a second route rather
than against themselves.  The two extremal maxima walk every shifted family
on [n] by ``recursive_shifted_families`` and reuse the library searches,
which are tested against the oracles above.  ``ranked_tuple_scan`` tries every
tuple of ranked traces, with no floor and no inclusion argument.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from emcverify.core import SetFamily, binomial, elements_from_mask, mask_from_elements
from emcverify.matchings import find_rainbow, matching_number


def brute_lower_shadow(family: SetFamily, b: int) -> set[int]:
    out = set()
    for m in family.members:
        elems = elements_from_mask(m)
        for combo in itertools.combinations(elems, family.k - b):
            out.add(mask_from_elements(combo))
    return out


def brute_upper_shadow(family: SetFamily, u: int) -> set[int]:
    ground = range(1, family.n + 1)
    out = set()
    for m in family.members:
        elems = set(elements_from_mask(m))
        rest = [e for e in ground if e not in elems]
        for extra in itertools.combinations(rest, u - family.k):
            out.add(mask_from_elements(sorted(elems) + list(extra)))
    return out


def brute_matching_number(family: SetFamily) -> int:
    best = 0
    members = family.members

    def rec(idx: int, used: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        for i in range(idx, len(members)):
            if not members[i] & used:
                rec(i + 1, used | members[i], count + 1)

    rec(0, 0, 0)
    return best


def brute_rainbow(families) -> tuple[int, ...] | None:
    """Exhaustive product-space search for pairwise disjoint representatives."""
    for combo in itertools.product(*(f.members for f in families)):
        acc = 0
        for m in combo:
            if acc & m:
                break
            acc |= m
        else:
            return combo
    return None


def recursive_shifted_families(n: int, k: int):
    """Every shifted k-uniform family on [n], by recursion over the layer in
    mask order: exclude the next set, then include it if all its cover
    predecessors (one element lowered one place into a free slot) are in."""
    order = sorted(mask_from_elements(c) for c in itertools.combinations(range(1, n + 1), k))
    index_of = {m: i for i, m in enumerate(order)}
    preds = []
    for m in order:
        elems = set(elements_from_mask(m))
        lowered = [sorted(elems - {e} | {e - 1}) for e in elems if e > 1 and e - 1 not in elems]
        preds.append([index_of[mask_from_elements(c)] for c in lowered])
    chosen = [False] * len(order)
    out: list[int] = []

    def walk(pos: int):
        if pos == len(order):
            yield SetFamily.from_masks(n, k, out)
            return
        yield from walk(pos + 1)
        if all(chosen[p] for p in preds[pos]):
            chosen[pos] = True
            out.append(order[pos])
            yield from walk(pos + 1)
            out.pop()
            chosen[pos] = False

    yield from walk(0)


def brute_classic_max(n: int, k: int, s: int) -> int:
    """Largest shifted family on [n] with matching number <= s, by walking them all.

    Shifting keeps the size and never raises the matching number, so this is
    the largest family of all.  ``matching_number`` is checked against
    ``brute_matching_number`` in tests/test_matchings.py.
    """
    return max(len(f) for f in recursive_shifted_families(n, k) if matching_number(f) <= s)


def brute_rainbow_max_min(n: int, k: int, s: int) -> int | None:
    """Largest min-size over cross-dependent (s+1)-tuples of shifted families on [n],
    or None past 10**6 nondecreasing tuples.

    The tuples are scanned over the families sorted by size, largest first;
    once a family cannot beat the best min found, its branch is pruned.
    """
    fams = sorted(recursive_shifted_families(n, k), key=len, reverse=True)
    if binomial(len(fams) + s, s + 1) > 10**6:
        return None
    best = 0
    chosen: list[SetFamily] = []

    def rec(start: int) -> None:
        nonlocal best
        for i in range(start, len(fams)):
            if len(fams[i]) <= best:
                break
            chosen.append(fams[i])
            if len(chosen) == s + 1:
                if not find_rainbow(tuple(chosen)).complete:
                    best = len(fams[i])
            else:
                rec(i)
            chosen.pop()

    rec(0)
    return best


def ranked_tuple_scan(ranked, s: int) -> int | None:
    """Largest min-size over cross-dependent (s+1)-tuples of the families in
    ``ranked``, (size, family) pairs sorted largest first, or None if none is.

    Each ranked family is tried with every nondecreasing s-tuple of the
    families up to it, and the first that closes a cross-dependent tuple gives
    the answer: every tuple is tried, with no floor and no inclusion argument.
    """
    for i, (size, family) in enumerate(ranked):
        for rest in itertools.combinations_with_replacement(ranked[:i + 1], s):
            if not find_rainbow((*(f for _, f in rest), family)).complete:
                return size
    return None


def law_mean(dist) -> Fraction:
    """Mean of a law given as {value: probability}."""
    return sum((value * p for value, p in dist.items()), Fraction(0))


def brute_hall_assignment(slice_sets: list[set[int]], blocks: list[int]):
    """Try every injective blocks-to-families assignment; None when impossible."""
    n_fam = len(slice_sets)

    def rec(i: int, used: set[int], acc: list[int]):
        if i == n_fam:
            return list(acc)
        for b in slice_sets[i]:
            if b not in used:
                used.add(b)
                acc.append(b)
                got = rec(i + 1, used, acc)
                if got is not None:
                    return got
                acc.pop()
                used.remove(b)
        return None

    return rec(0, set(), [])


def brute_matchings(n: int, first: int, block_size: int, t: int):
    """All t-sets of pairwise disjoint block_size-subsets of [first, n]."""
    blocks = [
        mask_from_elements(c)
        for c in itertools.combinations(range(first, n + 1), block_size)
    ]
    out = []
    for combo in itertools.combinations(blocks, t):
        acc = 0
        for b in combo:
            if acc & b:
                break
            acc |= b
        else:
            out.append(tuple(sorted(combo)))
    return out


def fraction_gap_bound(n: int, k: int, step) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The gap-set bound term by term in Fraction arithmetic: the sum over p
    in [k] of C(s'p - 1, p) * C(n - s'p + 1, k - p), generalized binomials by
    the falling factorial, and the consecutive term ratios."""

    def rational_binomial(x, m):
        x = Fraction(x)
        prod = 1
        for i in range(m):
            prod *= x.numerator - i * x.denominator
        return Fraction(prod, x.denominator**m * math.factorial(m))

    terms = [rational_binomial(step * p - 1, p) * rational_binomial(n - step * p + 1, k - p)
             for p in range(1, k + 1)]
    ratios = tuple(terms[p + 1] / terms[p] for p in range(len(terms) - 1) if terms[p] > 0)
    return sum(terms), ratios


def shuffle_draws(params, seed: int, t: int | None = None):
    """The matching stream as ``random.shuffle`` draws it: one ``random.Random(seed)``
    shuffles one list of X's one-bit masks per draw, and the first t(k-1)
    entries, chopped into (k-1)-blocks, are the draw."""
    t = params.t if t is None else t
    block = params.k - 1
    pool = [1 << (e - 1) for e in range(params.s + 2, params.n + 1)]
    rng = random.Random(seed)
    while True:
        rng.shuffle(pool)
        yield [sum(pool[i : i + block]) for i in range(0, t * block, block)]


def random_family(rng: random.Random, n: int, k: int, size: int) -> SetFamily:
    pool = list(itertools.combinations(range(1, n + 1), k))
    chosen = rng.sample(pool, min(size, len(pool)))
    return SetFamily.from_sets(n, k, chosen)
