"""Ground types: parameters, bit-mask k-sets, set families, and family file I/O.

Conventions used everywhere:
  * elements are labeled 1..n and element e sits on bit e-1 of a mask,
  * a family stores its member masks sorted increasingly (mask order on
    k-sets of a common ground set coincides with colex order),
  * all sizes and counts are exact Python integers.

Members are checked once, where they enter: ``SetFamily(...)``, ``from_masks``
and ``from_sets`` check each member, the family-file parsers check theirs in
``_member_mask``, and every family the library derives is built by
``_derived_family``, which checks only the shape.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterable, Iterator, Sequence


# Refuse to materialize a family, shadow or enumeration past this many sets.
MATERIALIZATION_CAP = 50_000_000


class ShapeError(ValueError):
    """A parameter or family violates a structural precondition."""


class FamilyFormatError(ValueError):
    """A family file is malformed; message carries a line number."""


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient with C(a, b) = 0 for b < 0 or b > a."""
    if a < 0:
        raise ShapeError(f"binomial: negative upper index {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def mask_from_elements(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        if e < 1:
            raise ShapeError(f"element {e} out of range (labels start at 1)")
        b = 1 << (e - 1)
        if m & b:
            raise ShapeError(f"repeated element {e}")
        m |= b
    return m


def mask_bits(mask: int) -> list[int]:
    """The set bits of ``mask`` as one-bit ints, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def elements_from_mask(mask: int) -> tuple[int, ...]:
    """The labels of ``mask`` in increasing order; one step per set bit."""
    return tuple(b.bit_length() for b in mask_bits(mask))


def interval_mask(lo: int, hi: int) -> int:
    """Mask of the label interval [lo, hi]; empty when hi < lo."""
    if hi < lo:
        return 0
    return ((1 << hi) - 1) ^ ((1 << (lo - 1)) - 1)


@dataclass(frozen=True)
class Params:
    """Problem parameters: ground size n, uniformity k, matching parameter s.

    Derived quantities: the reduced ground X = [s+2, n] of size
    n' = n - s - 1, and the matching length t = floor(n' / k).
    """

    n: int
    k: int
    s: int

    def __post_init__(self):
        if self.k < 1:
            raise ShapeError(f"k must be >= 1, got {self.k}")
        if self.n < self.k:
            raise ShapeError(f"need n >= k, got n={self.n} k={self.k}")
        if self.s < 0:
            raise ShapeError(f"s must be >= 0, got {self.s}")

    @property
    def n_prime(self) -> int:
        return self.n - self.s - 1

    @property
    def t(self) -> int:
        if self.n_prime < 0:
            raise ShapeError(f"n={self.n} too small for s={self.s}")
        return self.n_prime // self.k

    @property
    def x_first(self) -> int:
        return self.s + 2

    @property
    def x_mask(self) -> int:
        return interval_mask(self.s + 2, self.n)

    def x_elements(self) -> tuple[int, ...]:
        return tuple(range(self.s + 2, self.n + 1))


def e_enclosures() -> Iterator[tuple[Fraction, Fraction]]:
    """Ever tighter rational brackets lo < e < hi, without end.

    e lies strictly between sum_{i<=N} 1/i! and that sum plus 1/(N!*N); N
    starts at 32, where the bracket is below 1e-36 wide and so finer than a
    double, and doubles.  A caller takes brackets until its comparison with e
    is decided, which happens because e is irrational.
    """
    terms = 32
    while True:
        fact = math.factorial(terms)
        low = sum(fact // math.factorial(i) for i in range(terms + 1))  # fact * sum 1/i!
        yield Fraction(low, fact), Fraction(low * terms + 1, fact * terms)
        terms *= 2


def scaled_params(s: int, k: int) -> Params:
    """Params at n = ceil(3e(s+1)k), exact at any s.

    The first bracket of e_enclosures whose two ends give the same ceiling
    decides n.
    """
    q = 3 * (s + 1) * k
    for lo, hi in e_enclosures():
        n = math.ceil(q * lo)
        if n == math.ceil(q * hi):
            return Params(n=n, k=k, s=s)


@dataclass(frozen=True)
class SetFamily:
    """A family of k-element subsets of [n], member masks sorted increasingly."""

    n: int
    k: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.k < 0 or self.n < 0:
            raise ShapeError(f"bad family shape n={self.n} k={self.k}")
        prev = -1
        for m in self.members:
            # a negative mask fails here; its bit_length passes the ground check
            if m <= prev:
                raise ShapeError("family members must be strictly increasing masks")
            if m.bit_length() > self.n:
                raise ShapeError(f"member {elements_from_mask(m)} exceeds ground [,{self.n}]")
            if m.bit_count() != self.k:
                raise ShapeError(
                    f"member {elements_from_mask(m)} is not {self.k}-uniform")
            prev = m

    @classmethod
    def from_masks(cls, n: int, k: int, masks: Iterable[int]) -> "SetFamily":
        return cls(n=n, k=k, members=tuple(sorted(set(masks))))

    @classmethod
    def from_sets(cls, n: int, k: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls.from_masks(n, k, (mask_from_elements(s) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, mask: int) -> bool:
        i = bisect_left(self.members, mask)
        return i < len(self.members) and self.members[i] == mask

    def as_sets(self) -> list[tuple[int, ...]]:
        return [elements_from_mask(m) for m in self.members]


def _derived_family(n: int, k: int, masks: Iterable[int]) -> SetFamily:
    """``SetFamily.from_masks`` for masks known to be k-subsets of [n]: only the shape is checked."""
    fam = SetFamily(n, k, ())  # refuses a bad shape; no member to check yet
    object.__setattr__(fam, "members", tuple(sorted(set(masks))))  # fam is not shared yet
    return fam


# A cross-dependence instance is an (s+1)-tuple of same-shape families.
FamilyTuple = tuple[SetFamily, ...]


def validate_family_tuple(families: Sequence[SetFamily], s: int | None = None) -> None:
    if not families:
        raise ShapeError("empty family tuple")
    n, k = families[0].n, families[0].k
    for f in families:
        if (f.n, f.k) != (n, k):
            raise ShapeError(f"mixed shapes in tuple: ({f.n},{f.k}) vs ({n},{k})")
    if s is not None and len(families) != s + 1:
        raise ShapeError(f"tuple has {len(families)} families, expected s+1={s + 1}")


def _colex_masks(n: int, k: int) -> Iterator[int]:
    """The k-subsets of [n] as increasing masks (colex order), each found
    from the last by Gosper's step to the next larger mask of popcount k."""
    mask, top = (1 << k) - 1, 1 << n
    while mask < top:
        yield mask
        if not mask:  # k = 0: the empty set is the only one
            return
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


def enumerate_ksets(n: int, k: int, order: str = "colex") -> Iterator[int]:
    """Stream all k-subsets of [n] as masks, in colex or lex order."""
    if k < 0 or n < 0:
        raise ShapeError(f"bad layer n={n} k={k}")
    if order == "colex":
        yield from _colex_masks(n, k)
    elif order == "lex":
        for c in combinations(range(1, n + 1), k):
            yield mask_from_elements(c)
    else:
        raise ShapeError(f"unknown order {order!r}")


def lex_initial_family(n: int, k: int, m: int, order: str = "lex") -> SetFamily:
    """The first m k-sets of [n] in the given order."""
    total = binomial(n, k)
    if not 0 <= m <= total:
        raise ShapeError(f"family size {m} outside [0, C({n},{k})={total}]")
    return _derived_family(n, k, islice(enumerate_ksets(n, k, order), m))


# ---------------------------------------------------------------------------
# family files
#
# Text format: first non-comment line "n k", then one member per line as
# ascending space-separated labels; '#' starts a comment.  JSON alternative:
# {"n": ..., "k": ..., "sets": [[...], ...]}.

def _check_header(n: int, k: int, where: str) -> None:
    # both formats: n >= k >= 0, and n-bit masks capped like a family
    if k < 0 or n < k:
        raise FamilyFormatError(f"{where}bad header n={n} k={k}")
    if n > MATERIALIZATION_CAP:
        raise FamilyFormatError(
            f"{where}ground n={n} exceeds the cap {MATERIALIZATION_CAP}")


def _member_mask(labels: list[int], n: int, k: int, seen: set[int], where: str, at: int) -> int:
    """The mask of a family file's member: k labels, ascending, in [1, n], not in ``seen``.

    The message is ``where.format(at)``, built only on failure, and the first
    rule broken.  A label out of range sets no bit: the short popcount shows it,
    and only then is the first such label looked up for the message.
    """
    if len(labels) != k:
        raise FamilyFormatError(where.format(at) + f"expected {k} elements, got {len(labels)}")
    m = 0
    prev = labels[0] - 1 if labels else 0
    for v in labels:
        if v <= prev:
            raise FamilyFormatError(where.format(at) + "elements must be ascending")
        prev = v
        if 0 < v <= n:
            m |= 1 << (v - 1)
    if m.bit_count() != k:
        label = next(v for v in labels if not 0 < v <= n)
        raise FamilyFormatError(where.format(at) + f"label {label} outside [1, {n}]")
    if m in seen:
        raise FamilyFormatError(where.format(at) + "duplicate member")
    seen.add(m)
    return m


def parse_family_text(text: str) -> SetFamily:
    n = k = None
    masks = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = list(map(int, line.split()))
        except ValueError:
            raise FamilyFormatError(f"line {lineno}: non-integer token in {raw!r}")
        if n is None:
            if len(values) != 2:
                raise FamilyFormatError(
                    f"line {lineno}: header must be 'n k', got {raw!r}")
            n, k = values
            _check_header(n, k, f"line {lineno}: ")
            continue
        masks.append(_member_mask(values, n, k, seen, "line {}: ", lineno))
    if n is None:
        raise FamilyFormatError("line 1: missing 'n k' header")
    return _derived_family(n, k, masks)


def family_to_text(fam: SetFamily) -> str:
    lines = [f"{fam.n} {fam.k}"]
    for m in fam.members:
        lines.append(" ".join(str(e) for e in elements_from_mask(m)))
    return "\n".join(lines) + "\n"


def family_to_json(fam: SetFamily) -> dict:
    return {"n": fam.n, "k": fam.k, "sets": [list(s) for s in fam.as_sets()]}


def family_from_json(obj: dict) -> SetFamily:
    try:
        n, k, sets = obj["n"], obj["k"], obj["sets"]
    except (KeyError, TypeError):
        raise FamilyFormatError("JSON family needs keys 'n', 'k', 'sets'")
    if type(n) is not int or type(k) is not int or not isinstance(sets, list):
        raise FamilyFormatError("JSON family: 'n'/'k' must be ints, 'sets' a list")
    _check_header(n, k, "JSON family: ")
    masks, seen = [], set()
    for i, member in enumerate(sets):
        # type() rather than isinstance: a JSON true is not the label 1
        if not isinstance(member, list) or any(type(e) is not int for e in member):
            raise FamilyFormatError(
                f"JSON family: member {member!r} is not a list of integer labels")
        masks.append(_member_mask(member, n, k, seen, "JSON family: sets[{}]: ", i))
    return _derived_family(n, k, masks)


def read_family(path: str) -> SetFamily:
    """Load a family from a .json or text family file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise FamilyFormatError(f"line {lineno}: not UTF-8 text") from None
    if path.endswith(".json"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FamilyFormatError(f"line {exc.lineno}: invalid JSON ({exc.msg})")
        return family_from_json(obj)
    return parse_family_text(text)


def write_family(path: str, fam: SetFamily) -> None:
    with open(path, "w") as fh:
        if path.endswith(".json"):
            json.dump(family_to_json(fam), fh, sort_keys=True)
            fh.write("\n")
        else:
            fh.write(family_to_text(fam))
