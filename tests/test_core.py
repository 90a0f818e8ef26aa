import decimal
import json
import math
import random
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_family
from emcverify.constructions import build_extremal
from emcverify.core import (
    FamilyFormatError,
    Params,
    SetFamily,
    ShapeError,
    binomial,
    elements_from_mask,
    enumerate_ksets,
    family_from_json,
    family_to_json,
    family_to_text,
    interval_mask,
    lex_initial_family,
    e_enclosures,
    mask_from_elements,
    parse_family_text,
    read_family,
    scaled_params,
    validate_family_tuple,
    write_family,
)
from emcverify.densities import decompose, random_condition_family, slice_partition
from emcverify.matchings import enumerate_matchings, sample_matching
from emcverify.transforms import (
    enumerate_shifted_families,
    lower_shadow,
    shift_closure,
    shift_ij,
    upper_shadow,
)


class TestBinomial:
    def test_examples(self):
        assert binomial(5, 2) == 10
        assert binomial(4, 0) == 1
        assert binomial(3, 5) == 0
        assert binomial(0, 0) == 1
        assert binomial(7, -1) == 0

    def test_negative_upper_raises(self):
        with pytest.raises(ShapeError):
            binomial(-1, 0)

    def test_pascal_exhaustive(self):
        # C(a,b) = C(a-1,b-1) + C(a-1,b) over the whole table up to 64
        for a in range(1, 65):
            for b in range(0, a + 1):
                assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)

    def test_symmetry_and_row_sums(self):
        for a in range(0, 30):
            assert sum(binomial(a, b) for b in range(a + 1)) == 2**a
            for b in range(a + 1):
                assert binomial(a, b) == binomial(a, a - b)


class TestMasks:
    def test_round_trip(self):
        assert elements_from_mask(mask_from_elements([2, 5, 7])) == (2, 5, 7)
        assert mask_from_elements([]) == 0
        assert elements_from_mask(0) == ()

    def test_order_insensitive(self):
        assert mask_from_elements([5, 2]) == mask_from_elements([2, 5])

    def test_bad_elements(self):
        with pytest.raises(ShapeError):
            mask_from_elements([0])
        with pytest.raises(ShapeError):
            mask_from_elements([3, 3])

    def test_interval(self):
        assert interval_mask(1, 3) == 0b111
        assert interval_mask(3, 5) == 0b11100
        assert interval_mask(4, 3) == 0
        assert elements_from_mask(interval_mask(2, 6)) == (2, 3, 4, 5, 6)

    def test_one_step_per_set_bit(self):
        # a walk over every position up to the top label is quadratic in it
        started = time.perf_counter()
        assert elements_from_mask(1 << 299_999) == (300_000,)
        assert time.perf_counter() - started < 0.5

    @given(st.sets(st.integers(min_value=1, max_value=200)))
    def test_round_trip_property(self, elems):
        mask = mask_from_elements(elems)
        assert set(elements_from_mask(mask)) == elems
        assert mask.bit_count() == len(elems)


class TestParams:
    def test_derived(self):
        p = Params(n=10, k=2, s=3)
        assert p.n_prime == 6
        assert p.t == 3
        assert p.x_first == 5
        assert p.x_elements() == (5, 6, 7, 8, 9, 10)
        assert elements_from_mask(p.x_mask) == p.x_elements()

    def test_t_floor(self):
        assert Params(n=12, k=3, s=1).t == (12 - 2) // 3

    def test_validation(self):
        with pytest.raises(ShapeError):
            Params(n=2, k=3, s=0)
        with pytest.raises(ShapeError):
            Params(n=3, k=0, s=0)
        with pytest.raises(ShapeError):
            Params(n=3, k=1, s=-1)

    def test_scaled(self):
        p = scaled_params(11, 2)
        assert (p.n, p.n_prime, p.t) == (196, 184, 92)
        assert p.n == math.ceil(3 * math.e * 12 * 2)
        q = scaled_params(1, 2)
        assert q.n == math.ceil(3 * math.e * 2 * 2)

    def test_scaled_n_is_exact(self):
        # the double product rounds 3e(s+1)k = ...603.001 down to ...603
        assert math.ceil(3 * math.e * 642618088873 * 3) == 15721353662603
        assert scaled_params(642618088872, 3).n == 15721353662604
        # the audits' s keep the n the double gave
        for s in (2 * 10**6, 5 * 10**7):
            for k in range(1, 6):
                assert scaled_params(s, k).n == math.ceil(3 * math.e * (s + 1) * k)
        assert str(scaled_params(10**30, 3).n) == "24464536456131407118242587242199"

    def test_e_enclosures_tighten_around_e(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 300
            e = Fraction(decimal.Decimal(1).exp())  # within 1e-299 of e
        width = 1
        for lo, hi in islice(e_enclosures(), 3):  # widths about 1e-37, 1e-91, 1e-217
            assert lo < e < hi
            assert hi - lo < width * Fraction(1, 10**36)
            width = hi - lo


class TestEnumeration:
    def test_colex_small(self):
        got = [elements_from_mask(m) for m in enumerate_ksets(3, 2, "colex")]
        assert got == [(1, 2), (1, 3), (2, 3)]

    def test_lex_small(self):
        got = [elements_from_mask(m) for m in enumerate_ksets(4, 2, "lex")]
        assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_order_oracles(self):
        # colex sorts by reversed tuple, lex by the tuple itself
        for n in range(0, 9):
            for k in range(0, n + 1):
                colex = [elements_from_mask(m) for m in enumerate_ksets(n, k, "colex")]
                assert colex == sorted(colex, key=lambda c: tuple(reversed(c)))
                lex = [elements_from_mask(m) for m in enumerate_ksets(n, k, "lex")]
                assert lex == sorted(lex)

    def test_complete_and_duplicate_free(self):
        for n in range(0, 13):
            for k in range(0, n + 1):
                for order in ("colex", "lex"):
                    masks = list(enumerate_ksets(n, k, order))
                    assert len(masks) == binomial(n, k)
                    assert len(set(masks)) == len(masks)
                    assert all(m.bit_count() == k for m in masks)

    def test_colex_is_mask_order(self):
        for n in range(0, 10):
            masks = list(enumerate_ksets(n, 3, "colex"))
            assert masks == sorted(masks)

    def test_bad_order(self):
        with pytest.raises(ShapeError):
            list(enumerate_ksets(3, 2, "middle"))

    def test_colex_deep_layer_does_not_recurse(self):
        assert next(enumerate_ksets(2000, 1000)) == (1 << 1000) - 1


class TestLexInitial:
    def test_examples(self):
        fam = lex_initial_family(4, 2, 3, order="lex")
        assert fam.as_sets() == [(1, 2), (1, 3), (1, 4)]
        fam = lex_initial_family(4, 2, 3, order="colex")
        assert fam.as_sets() == [(1, 2), (1, 3), (2, 3)]

    def test_extremes(self):
        assert len(lex_initial_family(5, 2, 0)) == 0
        full = lex_initial_family(4, 3, 4, order="colex")
        assert len(full) == binomial(4, 3)

    def test_overflow_raises(self):
        with pytest.raises(ShapeError):
            lex_initial_family(4, 2, 7)

    def test_prefix_nesting(self):
        for order in ("lex", "colex"):
            prev: set[int] = set()
            for m in range(binomial(6, 3) + 1):
                cur = set(lex_initial_family(6, 3, m, order).members)
                assert prev <= cur and len(cur) == m
                prev = cur


class TestSetFamily:
    def test_construction_and_contains(self):
        fam = SetFamily.from_sets(5, 2, [(1, 2), (3, 5)])
        assert len(fam) == 2
        assert mask_from_elements([1, 2]) in fam
        assert mask_from_elements([1, 3]) not in fam
        assert mask_from_elements([4, 5]) not in fam  # past the last member
        assert 0 not in fam  # below the first member
        assert fam.as_sets() == [(1, 2), (3, 5)]

    def test_from_masks_dedups(self):
        m = mask_from_elements([2, 4])
        fam = SetFamily.from_masks(5, 2, [m, m])
        assert len(fam) == 1

    def test_validation(self):
        with pytest.raises(ShapeError):
            SetFamily.from_sets(4, 2, [(1, 2, 3)])
        with pytest.raises(ShapeError):
            SetFamily.from_sets(4, 2, [(3, 5)])
        with pytest.raises(ShapeError):
            SetFamily(n=4, k=2, members=(3, 3))
        with pytest.raises(ShapeError):  # -3 has two bits and bit_length 2
            SetFamily(n=4, k=2, members=(-3,))

    def test_tuple_validation(self):
        a = SetFamily.from_sets(4, 2, [(1, 2)])
        b = SetFamily.from_sets(4, 2, [(3, 4)])
        validate_family_tuple([a, b], s=1)
        with pytest.raises(ShapeError):
            validate_family_tuple([], s=0)
        with pytest.raises(ShapeError):
            validate_family_tuple([a, b], s=2)
        c = SetFamily.from_sets(5, 2, [(1, 2)])
        with pytest.raises(ShapeError):
            validate_family_tuple([a, c])


FAMILY_TEXT = """\
# comment line
6 2
1 2
3 6   # trailing comment
"""


class TestFamilyIO:
    def test_parse_text(self):
        fam = parse_family_text(FAMILY_TEXT)
        assert (fam.n, fam.k) == (6, 2)
        assert fam.as_sets() == [(1, 2), (3, 6)]

    def test_wide_ground_costs_nothing_per_member(self):
        # the ground check reads each member's bit_length, not an n-bit mask
        lines = [f"{2 * i + 1} {2 * i + 2}" for i in range(200)]
        started = time.perf_counter()
        fam = parse_family_text("50000000 2\n" + "\n".join(lines) + "\n")
        assert time.perf_counter() - started < 1.0
        assert (fam.n, len(fam), fam.as_sets()[-1]) == (50_000_000, 200, (399, 400))

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("6 2\n1 x\n", "line 2: non-integer"),
            ("6\n", "header"),
            ("6 2\n1 2 3\n", "line 2: expected 2"),
            ("6 2\n2 1\n", "ascending"),
            ("6 2\n5 7\n", "outside"),
            ("6 2\n1 2\n1 2\n", "duplicate"),
            ("", "missing"),
            ("2 6\n", "bad header"),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(FamilyFormatError, match=fragment):
            parse_family_text(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("6 2\n1 x\n", "line 2: non-integer token in '1 x'"),
            ("6 2 1\n", "line 1: header must be 'n k', got '6 2 1'"),
            ("x 2\n", "line 1: non-integer token in 'x 2'"),
            ("-1 0\n", "line 1: bad header n=-1 k=0"),
            ("2 6\n", "line 1: bad header n=2 k=6"),
            ("6\n", "line 1: header must be 'n k', got '6'"),
            ("", "line 1: missing 'n k' header"),
            ("# only a comment\n\n", "line 1: missing 'n k' header"),
            ("6 2\n1 2 3\n", "line 2: expected 2 elements, got 3"),
            ("6 2\n1\n", "line 2: expected 2 elements, got 1"),
            ("3 0\n1\n", "line 2: expected 0 elements, got 1"),
            ("6 2\n2 1\n", "line 2: elements must be ascending"),
            ("6 2\n2 2\n", "line 2: elements must be ascending"),
            ("6 2\n0 0\n", "line 2: elements must be ascending"),
            ("6 2\n7 1\n", "line 2: elements must be ascending"),
            ("6 3\n7 8 2\n", "line 2: elements must be ascending"),
            ("6 2\n0 1\n", "line 2: label 0 outside [1, 6]"),
            ("6 2\n-1 3\n", "line 2: label -1 outside [1, 6]"),
            ("6 2\n5 7\n", "line 2: label 7 outside [1, 6]"),
            ("6 2\n1 2\n1 2\n", "line 3: duplicate member"),
            ("# header next\n6 2\n1 2\n\n3 4  # ok\n2 1\n",
             "line 6: elements must be ascending"),
            ("6 2\n1 2\n3 x 4\n", "line 3: non-integer token in '3 x 4'"),
            ("6 2\n3 1 x\n", "line 2: non-integer token in '3 1 x'"),
            ("6 3\n3 2 1 0\n", "line 2: expected 3 elements, got 4"),
            ("1000000000000 1\n1\n", "line 1: ground n=1000000000000 exceeds the cap 50000000"),
            ("# big\n50000001 0\n", "line 2: ground n=50000001 exceeds the cap 50000000"),
        ],
    )
    def test_parse_error_messages_pinned(self, text, message):
        # exact messages, first broken rule first: token, header, count,
        # order, range, duplicate
        with pytest.raises(FamilyFormatError) as info:
            parse_family_text(text)
        assert str(info.value) == message

    def test_text_round_trip(self):
        fam = SetFamily.from_sets(7, 3, [(1, 2, 7), (2, 3, 4)])
        assert parse_family_text(family_to_text(fam)) == fam

    def test_json_round_trip(self):
        fam = SetFamily.from_sets(7, 3, [(1, 2, 7), (2, 3, 4)])
        assert family_from_json(family_to_json(fam)) == fam
        assert json.dumps(family_to_json(fam))  # serializable

    def test_json_errors(self):
        with pytest.raises(FamilyFormatError):
            family_from_json({"n": 4, "sets": []})
        with pytest.raises(FamilyFormatError):
            family_from_json({"n": "4", "k": 2, "sets": []})
        with pytest.raises(FamilyFormatError):
            family_from_json({"n": 4, "k": 2, "sets": [[1, 9]]})

    def test_file_round_trip(self, tmp_path):
        fam = SetFamily.from_sets(6, 2, [(1, 2), (5, 6)])
        for name in ("fam.txt", "fam.json"):
            path = str(tmp_path / name)
            write_family(path, fam)
            assert read_family(path) == fam

    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("f.txt", b"3 2\n1 2\n1 \xff\n", "line 3: not UTF-8 text"),
            ("f.json", b'{"n": 3, "k": 2, "sets": [[1, 2.5]]}',
             "JSON family: member [1, 2.5] is not a list of integer labels"),
            ("f.json", b'{"n": 3, "k": 2, "sets": [[1, "2"]]}',
             "JSON family: member [1, '2'] is not a list of integer labels"),
            ("f.json", b'{"n": 3, "k": 1, "sets": [5]}',
             "JSON family: member 5 is not a list of integer labels"),
            ("f.json", b'{"n": 3, "k": 2, "sets": [[1, true]]}',
             "JSON family: member [1, True] is not a list of integer labels"),
            ("f.json", b'{"n": true, "k": 0, "sets": []}',
             "JSON family: 'n'/'k' must be ints, 'sets' a list"),
            ("f.json", b'{"n": 1000000000000, "k": 1, "sets": [[1]]}',
             "JSON family: ground n=1000000000000 exceeds the cap 50000000"),
            ("f.json", b'{"n": 3, "k": 1, "sets": [[1000000000000]]}',
             "JSON family: sets[0]: label 1000000000000 outside [1, 3]"),
            ("f.json", b'{"n": 3, "k": 2, "sets": [[0, 1]]}',
             "JSON family: sets[0]: label 0 outside [1, 3]"),
            ("f.json", b'{"n": 4, "k": 2, "sets": [[1, 2], [2, 1], [3, 4]]}',
             "JSON family: sets[1]: elements must be ascending"),
            ("f.json", b'{"n": 4, "k": 2, "sets": [[1, 2], [3, 4], [1, 2]]}',
             "JSON family: sets[2]: duplicate member"),
            ("f.json", b'{"n": 4, "k": 2, "sets": [[1, 2, 3]]}',
             "JSON family: sets[0]: expected 2 elements, got 3"),
        ],
    )
    def test_read_family_malformed(self, tmp_path, name, data, message):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(FamilyFormatError) as info:
            read_family(str(path))
        assert str(info.value) == message

    def test_bad_json_file(self, tmp_path):
        path = str(tmp_path / "bad.json")
        path_obj = tmp_path / "bad.json"
        path_obj.write_text("{not json")
        with pytest.raises(FamilyFormatError, match="line"):
            read_family(path)

    @settings(max_examples=60)
    @given(st.data())
    def test_round_trip_property(self, data):
        # the text format cannot carry k = 0 members (a blank line), so the
        # text route is only exercised for k >= 1; JSON covers every shape
        n = data.draw(st.integers(min_value=1, max_value=8))
        k = data.draw(st.integers(min_value=0, max_value=n))
        layer = list(enumerate_ksets(n, k))
        members = data.draw(st.sets(st.sampled_from(layer)) if layer else st.just(set()))
        fam = SetFamily.from_masks(n, k, members)
        if k >= 1:
            assert parse_family_text(family_to_text(fam)) == fam
        assert family_from_json(family_to_json(fam)) == fam


# Every family the library derives, and every parsed one, skips the member
# loop of SetFamily; each builder maps a seeded random 3-uniform family on [7]
# and the seeded RNG to some of its outputs.
_DERIVED = {
    "shift_ij": lambda f, rng: [shift_ij(f, *sorted(rng.sample(range(1, 8), 2)))],
    "shift_closure": lambda f, rng: [shift_closure(f).result],
    "lower_shadow": lambda f, rng: [lower_shadow(f, b) for b in (1, 2, 3)],
    "upper_shadow": lambda f, rng: [upper_shadow(f, u) for u in (4, 5, 7)],
    "decompose": lambda f, rng: list(decompose(f, rng.sample(range(1, 8), 3)).values()),
    "slice_partition": lambda f, rng: list(slice_partition(f, rng.randint(0, 2))),
    "build_extremal": lambda f, rng: [
        build_extremal(Params(n=9, k=3, s=rng.randint(1, 2)), kind) for kind in "AB"],
    "lex_initial_family": lambda f, rng: [
        lex_initial_family(7, 3, rng.randint(0, 35), order) for order in ("lex", "colex")],
    "enumerate_shifted_families": lambda f, rng: rng.sample(list(enumerate_shifted_families(6, 2)), 5),
    "random_condition_family": lambda f, rng: [
        random_condition_family(Params(n=12, k=3, s=0), rng.randint(0, 40), rng)],
    "sample_matching": lambda f, rng: [sample_matching(Params(n=12, k=3, s=1), rng.randrange(99))],
    "enumerate_matchings": lambda f, rng: rng.sample(list(enumerate_matchings(Params(n=9, k=3, s=1))), 5),
    "parse_family_text": lambda f, rng: [parse_family_text(family_to_text(f))],
    "family_from_json": lambda f, rng: [family_from_json(family_to_json(f))],
}


class TestDerivedFamilies:
    @pytest.mark.parametrize("builder", sorted(_DERIVED))
    def test_outputs_pass_the_member_check(self, builder):
        rng = random.Random(f"derived-{builder}")
        for _ in range(4):
            f = random_family(rng, 7, 3, rng.randint(0, 35))
            for g in _DERIVED[builder](f, rng):
                assert SetFamily(g.n, g.k, g.members) == g

    def test_shapes_still_checked(self):
        # the slices F(j), j >= 1, of a k = 0 family would be (-1)-uniform
        with pytest.raises(ShapeError, match="bad family shape n=4 k=-1"):
            slice_partition(SetFamily(4, 0, (0,)), 1)

    def test_parsed_and_shadowed_members_are_not_rechecked(self, monkeypatch):
        checked = []
        post_init = SetFamily.__post_init__

        def counting(fam):
            checked.append(len(fam.members))
            post_init(fam)

        monkeypatch.setattr(SetFamily, "__post_init__", counting)
        fam = parse_family_text("6 2\n1 2\n3 4\n2 6\n")
        assert len(upper_shadow(fam, 4)) == 13 and len(lower_shadow(fam, 1)) == 5
        assert len(shift_closure(fam).result) == 3
        assert sum(checked) == 0
        with pytest.raises(ShapeError):  # an outside constructor still checks
            SetFamily.from_masks(6, 2, [0b111])
        assert checked[-1] == 1
