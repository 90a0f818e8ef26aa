"""End-to-end command tests: exit codes, report shapes, determinism.

Everything drives ``run(argv)`` in-process; stdout/stderr go through capsys
and files through tmp_path, except in the hypothesis test, which cannot take
function-scoped fixtures and redirects both itself.  Only the import-cost
check shells out, because it needs a fresh interpreter.
"""

import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emcverify
from emcverify.cli import run
from emcverify.core import SetFamily, read_family, write_family
from emcverify.engine import ThresholdConfig


def fam_file(path, n, k, *sets):
    write_family(str(path), SetFamily.from_sets(n, k, sets))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestConstruct:
    def test_size_only_prints_bare_decimal(self, capsys):
        assert run(["construct", "--kind", "A", "--n", "6", "--k", "2", "--s", "1",
                    "--size-only"]) == 0
        assert capsys.readouterr().out == "5\n"

    def test_size_only_writes_out_file(self, capsys, tmp_path):
        target = tmp_path / "size.txt"
        assert run(["construct", "--kind", "A", "--n", "6", "--k", "2", "--s", "1",
                    "--size-only", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == "5\n"

    def test_report_fields(self, capsys):
        code, rep = run_json(capsys, ["construct", "--kind", "B", "--n", "6",
                                      "--k", "2", "--s", "1"])
        assert code == 0
        assert rep["size"] == 3
        assert rep["spec_version"] == "0.1.0"
        assert rep["family"]["sets"] == [[1, 2], [1, 3], [2, 3]]

    def test_emit_alias_writes_family(self, capsys, tmp_path):
        out = tmp_path / "a.txt"
        code, rep = run_json(capsys, ["construct", "--kind", "A", "--n", "6",
                                      "--k", "2", "--s", "1", "--emit", str(out)])
        assert code == 0
        assert rep["family_file"] == str(out)
        fam = read_family(str(out))
        assert len(fam) == 5 and fam.k == 2

    def test_gap_dense_reports_cover_bound(self, capsys):
        code, rep = run_json(capsys, ["construct", "--kind", "gap-dense",
                                      "--n", "66", "--k", "2", "--s", "3"])
        assert code == 0
        assert rep["elements"] == [3, 6]
        assert rep["cover_bound_total"] == 138
        assert rep["cover_term_ratios"] == ["5/64"]

    def test_gap_integrality_usage_error(self, capsys):
        assert run(["construct", "--kind", "gap-dense", "--n", "66", "--k", "2",
                    "--s", "2"]) == 2
        assert "error:" in capsys.readouterr().err


class TestShiftShadowNu:
    def test_shift_moves_family(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 5, 2, (4, 5))
        out = tmp_path / "g.txt"
        code, rep = run_json(capsys, ["shift", "--in", src, "--family-out", str(out)])
        assert code == 0
        assert rep["applied"] > 0 and not rep["was_already_shifted"]
        assert read_family(str(out)).as_sets() == [(1, 2)]

    def test_shift_fixpoint_flagless(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 4, 2, (1, 2))
        code, rep = run_json(capsys, ["shift", "--in", src])
        assert code == 0
        assert rep["was_already_shifted"]

    def test_shadow_depth_one_is_the_default(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 5, 3, (1, 2, 3), (2, 3, 4))
        code_a, rep_a = run_json(capsys, ["shadow", "--in", src, "--depth", "1"])
        code_b, rep_b = run_json(capsys, ["shadow", "--in", src])
        assert code_a == code_b == 0
        assert rep_a == rep_b
        assert rep_a["shadow_size"] == 5 and rep_a["verdict"]

    def test_shadow_upper_flag(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 4, 1, (1,), (2,))
        code, rep = run_json(capsys, ["shadow", "--in", src, "--upper", "2"])
        assert code == 0
        assert rep["direction"] == "upper"
        assert rep["shadow_size"] == 5 and rep["kk_min"] == 5

    def test_shadow_deep_upper_and_lower(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 40, 1, (1,))
        code, rep = run_json(capsys, ["shadow", "--in", src, "--upper", "39"])
        assert code == 0 and rep["shadow_size"] == 39
        src = fam_file(tmp_path / "g.txt", 30, 30, tuple(range(1, 31)))
        code, rep = run_json(capsys, ["shadow", "--in", src, "--depth", "29"])
        assert code == 0 and rep["shadow_size"] == 30

    def test_deep_lower_shadow_refused_before_work(self, capsys, tmp_path):
        # C(30, 15) ≈ 1.6e8 candidate sets from one 30-set
        src = fam_file(tmp_path / "f.txt", 30, 30, tuple(range(1, 31)))
        assert run(["shadow", "--in", src, "--depth", "15"]) == 2
        assert "lower_shadow: would touch 155117520 candidate sets" in capsys.readouterr().err

    def test_shadow_depth_upper_conflict(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 4, 2, (1, 2))
        assert run(["shadow", "--in", src, "--depth", "1", "--upper", "3"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_shadow_conflict_before_reading(self, capsys, tmp_path):
        assert run(["shadow", "--in", str(tmp_path / "missing.txt"), "--depth", "1",
                    "--upper", "3"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_shadow_family_out(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 4, 2, (1, 2), (3, 4))
        out = tmp_path / "sh.txt"
        code, rep = run_json(capsys, ["shadow", "--in", src, "--depth", "1",
                                      "--family-out", str(out)])
        assert code == 0
        assert read_family(str(out)).as_sets() == [(1,), (2,), (3,), (4,)]

    def test_nu(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 6, 2, (1, 2), (3, 4), (1, 3))
        code, rep = run_json(capsys, ["nu", "--in", src])
        assert code == 0
        assert rep["nu"] == 2

    def test_nu_deep_family(self, capsys, tmp_path):
        # 1,200 disjoint singletons: one search level per member, no recursion
        src = tmp_path / "deep.txt"
        src.write_text("1200 1\n" + "".join(f"{e}\n" for e in range(1, 1201)))
        code, rep = run_json(capsys, ["nu", "--in", str(src)])
        assert code == 0
        assert rep["nu"] == 1200


class TestRainbow:
    def test_complete_tuple_exit_zero(self, capsys, tmp_path):
        a = fam_file(tmp_path / "a.txt", 4, 2, (1, 2), (3, 4))
        b = fam_file(tmp_path / "b.txt", 4, 2, (1, 2))
        code, rep = run_json(capsys, ["rainbow", "--in", a, b])
        assert code == 0
        assert rep["complete"]
        assert rep["assignment"] == [[3, 4], [1, 2]]

    def test_cross_dependent_exit_one(self, capsys, tmp_path):
        a = fam_file(tmp_path / "a.txt", 4, 2, (1, 2))
        b = fam_file(tmp_path / "b.txt", 4, 2, (1, 2))
        code, rep = run_json(capsys, ["rainbow", "--in", a, b])
        assert code == 1
        assert not rep["complete"]

    def test_long_tuple_without_recursion(self, capsys, tmp_path):
        # one single-element family per element of [1200]: deeper than the recursion limit
        paths = []
        for e in range(1, 1201):
            path = tmp_path / f"f{e}.txt"
            path.write_text(f"1200 1\n{e}\n")
            paths.append(str(path))
        start = time.perf_counter()
        code, rep = run_json(capsys, ["rainbow", "--in", *paths])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert rep["complete"] is True


class TestFamilyFileErrors:
    def test_malformed_line_number_on_stderr(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 2\n1 2\n2 1\n")
        assert run(["nu", "--in", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "ascending" in err

    def test_missing_file(self, capsys, tmp_path):
        assert run(["nu", "--in", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_json_family(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n")
        assert run(["nu", "--in", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_unbounded_ground_refused_at_once(self, capsys, tmp_path):
        bad = tmp_path / "big.txt"
        bad.write_text("1000000000000 1\n1\n")
        start = time.perf_counter()
        assert run(["nu", "--in", str(bad)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: line 1: ground n=1000000000000 exceeds the cap 50000000\n")

    @pytest.mark.parametrize("header", [(2, 3), (-1, 0), (4, -1)])
    def test_one_header_rule_for_both_formats(self, capsys, tmp_path, header):
        n, k = header
        text, blob = tmp_path / "bad.txt", tmp_path / "bad.json"
        text.write_text(f"{n} {k}\n")
        blob.write_text(json.dumps({"n": n, "k": k, "sets": []}))
        assert run(["nu", "--in", str(text)]) == 2
        assert capsys.readouterr().err == f"error: line 1: bad header n={n} k={k}\n"
        assert run(["nu", "--in", str(blob)]) == 2
        assert capsys.readouterr().err == f"error: JSON family: bad header n={n} k={k}\n"

    def test_json_member_rule(self, capsys, tmp_path):
        # the text rule: labels ascend and no member repeats
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 4, "k": 2, "sets": [[1, 2], [2, 1], [3, 4]]}')
        assert run(["nu", "--in", str(bad)]) == 2
        assert capsys.readouterr().err == "error: JSON family: sets[1]: elements must be ascending\n"

    def test_non_utf8_family(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"3 2\n1 2\n1 \xff\n")
        assert run(["nu", "--in", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 3: not UTF-8 text\n"


class TestSampleMatchingCmd:
    def test_deterministic_bytes(self, capsys, tmp_path):
        f1, f2 = tmp_path / "1.json", tmp_path / "2.json"
        assert run(["sample-matching", "--n", "9", "--k", "2", "--s", "2",
                    "--seed", "7", "--out", str(f1)]) == 0
        assert run(["sample-matching", "--n", "9", "--k", "2", "--s", "2",
                    "--seed", "7", "--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert capsys.readouterr().out == ""

    def test_family_out_is_readable_matching(self, capsys, tmp_path):
        out = tmp_path / "m.txt"
        for flag in ("--family-out", "--emit"):
            code, rep = run_json(capsys, ["sample-matching", "--n", "9", "--k", "2",
                                          "--s", "2", "--t", "3", flag, str(out)])
            assert code == 0
            m = read_family(str(out))
            assert m.k == 1 and len(m) == 3
            assert [list(b) for b in m.as_sets()] == rep["blocks"]
            assert all(b[0] >= 4 for b in rep["blocks"])


class TestConcentrationCmd:
    def test_exact_star_verdict(self, capsys, tmp_path):
        g = fam_file(tmp_path / "g.txt", 6, 1, (3,), (4,))
        code, rep = run_json(capsys, ["concentration", "--family", g, "--n", "6",
                                      "--k", "2", "--s", "1", "--exact"])
        assert code == 0
        assert rep["verdict"]
        assert rep["alpha"] == "1/2"

    def test_exact_csv(self, capsys, tmp_path):
        g = fam_file(tmp_path / "g.txt", 6, 1, (3,), (4,))
        assert run(["concentration", "--in", g, "--n", "6", "--k", "2", "--s", "1",
                    "--exact", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "eta,probability"
        assert len(lines) >= 2

    def test_monte_carlo_csv_and_seeded_bytes(self, capsys, tmp_path):
        g = fam_file(tmp_path / "g.txt", 9, 1, (4,), (5,), (6,))
        argv = ["concentration", "--in", g, "--n", "9", "--k", "2", "--s", "2",
                "--trials", "200", "--seed", "11"]
        code, rep_a = run_json(capsys, argv)
        assert code == 0
        _, rep_b = run_json(capsys, argv)
        assert rep_a == rep_b
        assert run(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "eta,count"
        assert sum(int(r.split(",")[1]) for r in lines[1:]) == 200

    def test_exact_tails_of_the_star(self, capsys, tmp_path):
        # n' = 6, t = 3: every matching covers element 3, so eta = 1 = alpha*t
        g = fam_file(tmp_path / "g.txt", 8, 2, *[(3, x) for x in range(4, 9)])
        argv = ["concentration", "--in", g, "--n", "8", "--k", "3", "--s", "1", "--t", "3",
                "--exact"]
        code, rep = run_json(capsys, argv + ["--beta-grid", "0,0.5"])
        assert code == 0 and rep["distribution"] == {"1": "1"}
        assert [bt["beta"] for bt in rep["beta_grid"]] == [0.0, 0.5]
        assert [bt["tail_count"] for bt in rep["beta_grid"]] == [15, 0]
        assert [bt["tail_freq"] for bt in rep["beta_grid"]] == ["1", "0"]
        assert rep["beta_grid"][1]["threshold"] == 2 * 0.5 * math.sqrt(3)
        _, rep = run_json(capsys, argv)
        assert [bt["beta"] for bt in rep["beta_grid"]] == [0.5, 1.0, 2.0, 3.0]
        assert all(bt["tail_freq"] == "0" for bt in rep["beta_grid"])

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("mode", [[], ["--exact"]])
    def test_bad_beta_grid(self, capsys, tmp_path, beta, mode):
        # NaN would be written as invalid JSON; inf and negatives make no cutoff
        g = fam_file(tmp_path / "g.txt", 9, 1, (4,), (5,), (6,))
        argv = ["concentration", "--in", g, "--n", "9", "--k", "2", "--s", "2",
                "--beta-grid", f"0.5,{beta}", "--format", "json", *mode]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: beta grid: need finite betas >= 0")

    def test_exact_beyond_the_enumerator(self, capsys, tmp_path):
        # n' = 22, t = 7: 4.3e10 matchings, past the old 1e7 enumeration guard
        g = fam_file(tmp_path / "g.txt", 25, 2, (4, 5), (4, 6), (5, 9), (10, 20))
        code, rep = run_json(capsys, ["concentration", "--in", g, "--n", "25", "--k", "3",
                                      "--s", "2", "--exact"])
        assert code == 0 and rep["verdict"]
        assert rep["mean"] == rep["expected_mean"] == "4/33"

    def test_exact_guard_refuses_before_work(self, capsys, tmp_path):
        g = fam_file(tmp_path / "g.txt", 29, 3, (4, 5, 6))
        start = time.perf_counter()
        assert run(["concentration", "--in", g, "--n", "29", "--k", "4", "--s", "2",
                    "--exact"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: exact eta law at n'=26, k=4, t=6")
        assert "work bound above" in err

    @pytest.mark.parametrize("extra", [["--seed", "5"], ["--trials", "7"]])
    def test_exact_refuses_sampling_options(self, capsys, tmp_path, extra):
        # refused before the family file, which does not exist, is read
        argv = ["concentration", "--in", str(tmp_path / "absent.txt"), "--n", "6", "--k", "2",
                "--s", "1", "--exact", *extra]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: --seed and --trials are not read with --exact\n"

    def test_ground_mismatch(self, capsys, tmp_path):
        g = fam_file(tmp_path / "g.txt", 6, 1, (3,))
        assert run(["concentration", "--in", g, "--n", "7", "--k", "2", "--s", "1",
                    "--exact"]) == 2


class TestVerifyGrids:
    def test_emc_small_grid(self, capsys):
        code, rep = run_json(capsys, ["verify", "emc", "--n-max", "5",
                                      "--k-max", "2", "--s-max", "1"])
        assert code == 0
        assert rep["all_ok"]
        by_key = {(r["n"], r["k"], r["s"]): r for r in rep["rows"]}
        tie = by_key[(4, 2, 1)]
        assert tie["size_a"] == tie["size_b"] == 3 and tie["found"] == 3
        assert by_key[(5, 2, 1)]["found"] == 4

    def test_rainbow_emc_small_grid(self, capsys):
        code, rep = run_json(capsys, ["verify", "rainbow-emc", "--n-max", "5",
                                      "--k-max", "2", "--s-max", "1"])
        assert code == 0
        by_key = {(r["n"], r["k"], r["s"]): r for r in rep["rows"]}
        assert by_key[(4, 2, 1)]["found"] == 3
        assert by_key[(5, 2, 1)]["found"] == 4

    def test_rainbow_rows_past_the_tuple_guard_skipped(self, capsys):
        start = time.perf_counter()
        code, rep = run_json(capsys, ["verify", "rainbow-emc", "--n-max", "9", "--k-max", "2",
                                      "--s-max", "3"])
        assert time.perf_counter() - start < 5.0
        assert code == 0 and rep["all_ok"]
        skipped = {(r["n"], r["k"], r["s"]) for r in rep["rows"] if "skipped" in r}
        assert skipped == {(8, 2, 3), (9, 2, 3)}
        assert all(r["verdict"] for r in rep["rows"] if "skipped" not in r)

    def test_emc_csv(self, capsys):
        assert run(["verify", "emc", "--n-max", "4", "--k-max", "2",
                    "--s-max", "1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,k,s,size_a,size_b,expected,found,verdict"


def _tails(*rows):
    return [dict(zip(("beta", "bound", "tail_count", "tail_freq", "threshold"), r)) for r in rows]


class TestPinnedReports:
    """Whole reports of the commands whose logic lives in the library, byte for byte."""

    def test_concentration_exact(self, capsys, tmp_path):
        g = fam_file(tmp_path / "g.txt", 9, 2, (3, 4), (3, 5), (4, 6), (7, 9))
        code, rep = run_json(capsys, ["concentration", "--in", g, "--n", "9", "--k", "3",
                                      "--s", "1", "--exact"])
        assert code == 0
        assert rep == {
            "alpha": "4/21",
            "beta_grid": _tails((0.5, 1.764993805169191, 4, "4/105", 1.4142135623730951),
                                (1.0, 1.2130613194252668, 0, "0", 2.8284271247461903),
                                (2.0, 0.2706705664732254, 0, "0", 5.656854249492381),
                                (3.0, 0.022217993076484612, 0, "0", 8.485281374238571)),
            "distribution": {"0": "23/35", "1": "32/105", "2": "4/105"},
            "expected_mean": "8/21",
            "mean": "8/21",
            "mode": "exact",
            "spec_version": emcverify.SPEC_VERSION,
            "t": 2,
            "verdict": True,
        }

    @pytest.mark.parametrize("seed, min_slack", [(1, 18), (7, 26)])
    def test_lemma4(self, capsys, seed, min_slack):
        code, rep = run_json(capsys, ["verify", "lemma4", "--n", "10", "--k", "2", "--s", "1",
                                      "--trials", "6", "--seed", str(seed)])
        assert code == 0
        assert rep == {"all_ok": True, "failures": [], "k": 2, "min_slack": min_slack, "n": 10,
                       "s": 1, "seed": seed, "spec_version": emcverify.SPEC_VERSION,
                       "statement": "weighted shadow bound", "trials": 6}

    @pytest.mark.parametrize("seed, min_slack", [(1, "541/55"), (7, "328/55")])
    def test_theorem3(self, capsys, seed, min_slack):
        code, rep = run_json(capsys, ["verify", "theorem3", "--n", "11", "--k", "3", "--s", "1",
                                      "--b", "2", "--trials", "4", "--seed", str(seed)])
        assert code == 0
        assert rep == {"all_ok": True, "b": 2, "failures": [], "k": 3, "min_slack": min_slack,
                       "n": 11, "s": 1, "seed": seed, "spec_version": emcverify.SPEC_VERSION,
                       "statement": "depth-b shadow bound", "thresholds": [11, 17], "trials": 4}

    def test_emc_csv(self, capsys):
        assert run(["verify", "emc", "--n-max", "8", "--k-max", "3", "--s-max", "2",
                    "--format", "csv"]) == 0
        rows = [(n, 1, s, s, s, s, s, True) for s in (1, 2) for n in range(s + 1, 9)]
        rows += [(n, 2, 1, n - 1, 3, max(n - 1, 3), max(n - 1, 3), True) for n in range(4, 9)]
        rows += [(6, 2, 2, 9, 10, 10, 10, True), (7, 2, 2, 11, 10, 11, 11, True),
                 (8, 2, 2, 13, 10, 13, 13, True), (6, 3, 1, 10, 10, 10, 10, True),
                 (7, 3, 1, 15, 10, 15, 15, True), (8, 3, 1, 21, 10, 21, 21, True)]
        lines = ["n,k,s,size_a,size_b,expected,found,verdict"]
        lines += [",".join(map(str, row)) for row in rows]
        assert capsys.readouterr().out == "\r\n".join(lines) + "\r\n"


class TestVerifyStatements:
    def test_lemma4_report(self, capsys):
        code, rep = run_json(capsys, ["verify", "lemma4", "--n", "9", "--k", "2",
                                      "--s", "1", "--trials", "20"])
        assert code == 0
        assert rep["all_ok"] and rep["failures"] == []
        assert rep["min_slack"] >= 0

    def test_lemma4_sparse_condition_caps_size(self, capsys):
        # only {1}, ..., {5} meet the ell-condition at s = 1, so no draw may ask for 6
        start = time.perf_counter()
        code, rep = run_json(capsys, ["verify", "lemma4", "--n", "10", "--k", "1",
                                      "--s", "1", "--trials", "3"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert rep["all_ok"] and rep["trials"] == 3

    @pytest.mark.parametrize("n,k,s", [(2000, 600, 1), (5000, 5000, 0), (1200, 390, 0)])
    def test_lemma4_large_k_is_quick(self, capsys, n, k, s):
        # the cut table keeps only the states a set can reach and that can
        # still miss every later cut: none for the first two shapes, and the
        # most near k = n / (3(s + 1)), as in the third
        start = time.perf_counter()
        code, rep = run_json(capsys, ["verify", "lemma4", "--n", str(n), "--k", str(k),
                                      "--s", str(s), "--trials", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert rep["all_ok"]

    def test_theorem3_report(self, capsys):
        code, rep = run_json(capsys, ["verify", "theorem3", "--n", "11", "--k", "2",
                                      "--s", "1", "--trials", "10"])
        assert code == 0
        assert rep["thresholds"] == [5, 11]
        assert rep["all_ok"]

    def test_theorem3_single_qualifying_set(self, capsys):
        # only {1..5} has 5 elements in [5]: the pool is counted, not scanned
        start = time.perf_counter()
        code, rep = run_json(capsys, ["verify", "theorem3", "--n", "80", "--k", "5",
                                      "--s", "1", "--b", "5", "--thresholds", "5",
                                      "--trials", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert rep["all_ok"] and rep["min_slack"] == "0"  # |shadow_5({1..5})| = 1 = |F|

    def test_theorem3_bad_thresholds_refused_before_any_draw(self, capsys):
        start = time.perf_counter()
        assert run(["verify", "theorem3", "--n", "12", "--k", "3", "--s", "1",
                    "--thresholds", "5,4,9", "--trials", "20000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: verify_theorem3: thresholds must be strictly increasing\n")

    def test_theorem3_explicit_thresholds(self, capsys):
        code, rep = run_json(capsys, ["verify", "theorem3", "--n", "8", "--k", "2",
                                      "--s", "1", "--b", "1", "--thresholds", "3,8",
                                      "--trials", "10"])
        assert code == 0
        assert rep["all_ok"]

    def test_local_lym(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 5, 2, (1, 2), (1, 3), (2, 3))
        code, rep = run_json(capsys, ["verify", "local-lym", "--in", src])
        assert code == 0
        assert rep["verdict"]

    def test_bt_default_u(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 4, 2, (1, 2))
        code, rep = run_json(capsys, ["verify", "bt", "--in", src, "--u", "3"])
        assert code == 0
        assert rep["check"]["lhs"] == 24 and rep["check"]["rhs"] == 16

    def test_bt_empty_family_degenerate_exit_one(self, capsys, tmp_path):
        empty = tmp_path / "e.txt"
        empty.write_text("4 2\n")
        assert run(["verify", "bt", "--in", str(empty), "--u", "4"]) == 1


class TestAuditCmd:
    def test_pass_at_scale(self, capsys):
        code, rep = run_json(capsys, ["audit", "--s", "2000000", "--k", "2"])
        assert code == 0
        assert rep["all_passed"]

    def test_fail_exit_one(self, capsys):
        code, rep = run_json(capsys, ["audit", "--s", "1000000", "--k", "2"])
        assert code == 1
        names = [c["name"] for c in rep["report"]["checks"] if not c["passed"]]
        assert "gamma-margin" in names

    def test_checks_subset(self, capsys):
        code, rep = run_json(capsys, ["audit", "--s", "1000000", "--k", "2",
                                      "--checks", "t-floor,union-bound"])
        assert code == 0
        assert [c["name"] for c in rep["report"]["checks"]] == ["t-floor", "union-bound"]

    def test_past_the_double_range(self, capsys):
        # s*t has no double at 10^154; gamma has none at 10^400
        code, rep = run_json(capsys, ["audit", "--s", str(10**154), "--k", "3"])
        assert code == 0 and rep["all_passed"]
        assert run(["audit", "--s", str(10**400), "--k", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: gamma_threshold: ")

    def test_csv(self, capsys):
        assert run(["audit", "--s", "2000000", "--k", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,passed,lhs,rhs"

    def test_scan_down(self, capsys):
        code, rep = run_json(capsys, ["audit", "--s", "2000000", "--k", "2",
                                      "--scan-down"])
        assert code == 0
        assert rep["first_failing_s"] == 1000000

    @pytest.mark.parametrize("extra", [["--factor", "3"], ["--floor-s", "4"]])
    def test_scan_options_only_with_scan_down(self, capsys, extra):
        argv = ["audit", "--s", "2000000", "--k", "2", *extra]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: --factor and --floor-s are read only with --scan-down\n")
        assert run(argv + ["--scan-down"]) == 0

    def test_unknown_check_name(self, capsys):
        assert run(["audit", "--s", "100", "--k", "2", "--checks", "bogus"]) == 2


def write_tuple(root):
    d = root / "tuple"
    d.mkdir()
    layer = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
    fam_file(d / "f0.txt", 6, 2, *layer)
    fam_file(d / "f1.txt", 6, 2, *layer)
    matching = fam_file(root / "m.txt", 6, 1, (3,), (4,))
    return d, matching


@pytest.fixture
def tuple_dir(tmp_path):
    return write_tuple(tmp_path)


class TestProcedureCmd:
    def test_full_run_finds_rainbow(self, capsys, tuple_dir):
        d, matching = tuple_dir
        code, rep = run_json(capsys, ["procedure", "--tuple", str(d),
                                      "--matching", matching])
        assert code == 0
        assert rep["trace"]["outcome"] == "rainbow-found"
        assert rep["witness_sets"] == [[1, 4], [2, 3]]

    def test_arrange_only(self, capsys, tuple_dir):
        d, matching = tuple_dir
        code, rep = run_json(capsys, ["procedure", "--tuple", str(d),
                                      "--matching", matching, "--arrange-only"])
        assert code == 0
        assert rep["trace"]["outcome"] == "arranged"
        assert rep["trace"]["order"] == [1, 2]

    def test_config_overrides(self, capsys, tuple_dir, tmp_path):
        d, matching = tuple_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u_target": 1, "small_alpha_cut": "1/2"}))
        code, rep = run_json(capsys, ["procedure", "--tuple", str(d),
                                      "--matching", matching, "--config", str(cfg)])
        assert code == 0
        assert rep["trace"]["config"]["u_target"] == 1
        assert rep["trace"]["config"]["small_alpha_cut"] == "1/2"

    def test_unknown_config_key(self, capsys, tuple_dir, tmp_path):
        d, matching = tuple_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert run(["procedure", "--tuple", str(d), "--matching", matching,
                    "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_matching_block_size_mismatch(self, capsys, tuple_dir, tmp_path):
        d, _ = tuple_dir
        bad = fam_file(tmp_path / "m2.txt", 6, 2, (3, 4), (5, 6))
        assert run(["procedure", "--tuple", str(d), "--matching", bad]) == 2
        assert "1)-sets" in capsys.readouterr().err

    def test_matching_overlap(self, capsys, tuple_dir, tmp_path):
        d, _ = tuple_dir
        bad = fam_file(tmp_path / "m3.txt", 6, 2, (3, 4), (4, 5))
        assert run(["procedure", "--tuple", str(d), "--matching", bad]) == 2
        assert "overlapping" in capsys.readouterr().err

    def test_matching_hits_prefix(self, capsys, tuple_dir, tmp_path):
        d, _ = tuple_dir
        bad = fam_file(tmp_path / "m4.txt", 6, 1, (1,), (3,))
        assert run(["procedure", "--tuple", str(d), "--matching", bad]) == 2
        assert "prefix" in capsys.readouterr().err

    def test_tuple_dir_must_exist(self, capsys, tuple_dir, tmp_path):
        _, matching = tuple_dir
        assert run(["procedure", "--tuple", str(tmp_path / "nope"),
                    "--matching", matching]) == 2
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["procedure", "--tuple", str(empty), "--matching", matching]) == 2


@pytest.mark.parametrize("argv", [
    ["procedure", "--config", "{not json"],
    ["procedure", "--config", '{"w1_cut": "abc"}'],
    ["concentration", "--n", "6", "--k", "2", "--s", "1", "--beta-grid", "x"],
    ["verify", "theorem3", "--n", "8", "--k", "2", "--s", "1", "--thresholds", "a,b"],
    ["procedure", "--config", '{"third_slice": 99}'],
    ["procedure", "--config", '{"third_slice": 0}'],
    ["procedure", "--config", '{"u_target": 3}'],
    ["procedure", "--config", '{"gamma": -1}'],
    ["procedure", "--config", '{"t": 3}'],
    ["procedure", "--config", '{"one_set_rule": "bogus"}'],
    ["procedure", "--config", '{"s": 5}'],
    ["verify", "theorem3", "--n", "8", "--k", "2", "--s", "1", "--thresholds", "5"],
    ["verify", "theorem3", "--n", "8", "--k", "2", "--s", "1", "--b", "3"],
    ["verify", "lemma4", "--n", "8", "--k", "2", "--s", "1", "--max-size", "0"],
    ["verify", "theorem3", "--n", "8", "--k", "2", "--s", "1", "--max-size", "0"],
    ["verify", "theorem3", "--n", "8", "--k", "2", "--s", "1", "--thresholds", "0,5"],
    ["verify", "theorem3", "--n", "8", "--k", "2", "--s", "1", "--thresholds", "0,1"],
    ["verify", "theorem3", "--n", "8", "--k", "2", "--s", "1", "--trials", "0"],
    ["verify", "lemma4", "--n", "8", "--k", "2", "--s", "1", "--trials", "-5"],
    ["procedure", "--config", '{"u_target": 1.7}'],
    ["procedure", "--config", '{"u_target": true}'],
], ids=["config-not-json", "config-bad-value", "beta-grid", "thresholds",
        "config-third-slice-high", "config-third-slice-zero", "config-u-target",
        "config-gamma", "config-t", "config-one-set-rule", "config-s", "thresholds-count", "depth-b",
        "max-size-zero", "theorem3-max-size-zero", "threshold-zero-division",
        "thresholds-unmeetable", "trials-zero", "trials-negative", "config-int-fraction",
        "config-int-bool"])
def test_malformed_value_is_usage_error(capsys, tuple_dir, tmp_path, argv):
    d, matching = tuple_dir
    if argv[0] == "procedure":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(argv[2])
        argv = ["procedure", "--tuple", str(d), "--matching", matching, "--config", str(cfg)]
    elif argv[0] == "concentration":
        argv = argv + ["--in", matching]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


_small = st.integers(-2, 10)
_scalar = st.one_of(_small, st.floats(-2, 10), st.booleans(), st.none(),
                    st.text("0123456789-./ ", max_size=3))
_text_family = st.lists(st.lists(_small, max_size=4), max_size=5).map(
    lambda lines: "".join(" ".join(map(str, line)) + "\n" for line in lines).encode())
_family_bytes = st.one_of(st.binary(max_size=24), _text_family,
                          st.tuples(_text_family, st.binary(max_size=2)).map(b"".join))
_json_family = st.fixed_dictionaries({
    "n": st.one_of(st.integers(0, 10), _scalar),
    "k": st.one_of(st.integers(0, 4), _scalar),
    "sets": st.lists(st.one_of(st.lists(_scalar, max_size=4), _scalar), max_size=4),
})
_config = st.dictionaries(st.sampled_from([*ThresholdConfig.__dataclass_fields__, "bogus"]),
                          _scalar, max_size=3)
_INT_FIELDS = {k for k, f in ThresholdConfig.__dataclass_fields__.items() if f.type == "int"}

# command -> (argv, required integer flags, optional integer flags); "{f}" is a
# drawn family file, "{m}" a drawn or a valid matching, "{c}" a drawn config
_FUZZ_COMMANDS = {
    "nu": (["nu", "--in", "{f}"], [], []),
    "shadow": (["shadow", "--in", "{f}"], [], ["--depth", "--upper"]),
    "local-lym": (["verify", "local-lym", "--in", "{f}"], [], ["--ground"]),
    "bt": (["verify", "bt", "--in", "{f}"], [], ["--u"]),
    "lemma4": (["verify", "lemma4"], ["--n", "--k", "--s", "--trials"], ["--max-size"]),
    "theorem3": (["verify", "theorem3"], ["--n", "--k", "--s", "--trials"], ["--b", "--max-size"]),
    "sample-matching": (["sample-matching"], ["--n", "--k", "--s"], ["--t"]),
    "audit": (["audit"], ["--s", "--k"], ["--factor", "--floor-s"]),
    "procedure": (["procedure", "--tuple", "{d}", "--matching", "{m}", "--config", "{c}"], [], []),
    "shift": (["shift", "--in", "{f}"], [], []),
    "rainbow": (["rainbow", "--in", "{f}", "{f}"], [], []),
    "construct-A": (["construct", "--kind", "A"], ["--n", "--k", "--s"], []),
    "concentration": (["concentration", "--in", "{f}"], ["--n", "--k", "--s", "--trials"], ["--t"]),
    "concentration-exact": (["concentration", "--exact", "--in", "{f}"], ["--n", "--k", "--s"], ["--t"]),
    "emc": (["verify", "emc"], ["--n-max", "--k-max", "--s-max"], []),
    "rainbow-emc": (["verify", "rainbow-emc"], ["--n-max", "--k-max", "--s-max"], []),
}
# Commands whose report has a csv table, and commands that draw at random.
_TABLE = {"audit", "concentration", "concentration-exact", "emc", "rainbow-emc"}
_SEEDED = {"concentration", "lemma4", "sample-matching", "theorem3"}


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, *write_tuple(root)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_inputs_keep_exit_code_contract(fuzz_root, data):
    """Any family bytes, JSON family, config or small flag value ends in 0, 1 or 2.

    A bad input exits 2 without a traceback; a verify run over no trials, a
    config with a fractional or boolean integer, csv for a report without a
    table, --seed on a command or mode that draws nothing and --factor or
    --floor-s without --scan-down are bad inputs.
    """
    root, tuple_dir, valid_matching = fuzz_root
    name = data.draw(st.sampled_from(sorted(_FUZZ_COMMANDS)), label="command")
    argv, required, optional = _FUZZ_COMMANDS[name]
    bad_header = False
    if data.draw(st.booleans(), label="json"):
        family = root / "f.json"
        obj = data.draw(_json_family, label="family")
        family.write_text(json.dumps(obj))
        bad_header = type(obj["n"]) is int and type(obj["k"]) is int and obj["n"] < obj["k"]
    else:
        family = root / "f.txt"
        family.write_bytes(data.draw(_family_bytes, label="family"))
    config = data.draw(_config, label="config")
    (root / "c.json").write_text(json.dumps(config))
    matching = valid_matching if data.draw(st.booleans(), label="valid M") else str(family)
    argv = [a.format(f=family, d=tuple_dir, m=matching, c=root / "c.json") for a in argv]
    flags = {f: data.draw(_small, label=f) for f in required}
    flags.update({f: data.draw(_small, label=f) for f in optional if data.draw(st.booleans())})
    if data.draw(st.booleans(), label="seeded"):
        flags["--seed"] = data.draw(_small, label="--seed")
    flags["--format"] = data.draw(st.sampled_from(["json", "csv", "text"]), label="--format")
    for flag, value in flags.items():
        argv += [flag, str(value)]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if bad_header and str(family) in argv:  # the command reads the drawn family
        assert code == 2
    if flags.get("--trials", 1) < 1:
        assert code == 2
    if flags["--format"] == "csv" and name not in _TABLE:
        assert code == 2
    if "--seed" in flags and name not in _SEEDED:
        assert code == 2
    if name == "audit" and ("--factor" in flags or "--floor-s" in flags):
        assert code == 2
    if name == "procedure" and any(
        isinstance(v, bool) or (isinstance(v, float) and not v.is_integer())
        for k, v in config.items() if k in _INT_FIELDS
    ):
        assert code == 2


def test_cli_import_does_not_load_numpy():
    src = str(Path(emcverify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import emcverify.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestHarness:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "construct" in capsys.readouterr().out

    def test_no_subcommand(self, capsys):
        assert run([]) == 2

    def test_verify_without_statement(self, capsys):
        assert run(["verify"]) == 2

    def test_csv_undefined_for_subcommand(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 4, 2, (1, 2))
        assert run(["nu", "--in", src, "--format", "csv"]) == 2
        assert "csv format is not defined" in capsys.readouterr().err

    def test_csv_refused_before_the_work(self, capsys):
        start = time.perf_counter()
        assert run(["verify", "lemma4", "--n", "12", "--k", "2", "--s", "1",
                    "--trials", "20000", "--format", "csv"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "csv format is not defined" in capsys.readouterr().err

    def test_crash_is_not_a_verdict(self, capsys, monkeypatch, tmp_path):
        # exit 1 means a false verdict, so an unexpected exception exits 3
        def crash(args):
            raise RuntimeError("handler blew up")

        monkeypatch.setattr("emcverify.cli.cmd_nu", crash)
        assert run(["nu", "--in", fam_file(tmp_path / "f.txt", 4, 2, (1, 2))]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error:\nTraceback (most recent call last):")
        assert captured.err.endswith("RuntimeError: handler blew up\n")

    def test_out_writes_file_only(self, capsys, tmp_path):
        target = tmp_path / "r.json"
        assert run(["construct", "--kind", "A", "--n", "6", "--k", "2", "--s", "1",
                    "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["size"] == 5

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "emc", "--n-max", "4", "--k-max", "2", "--s-max", "1"]
        assert run(argv + ["--out", str(f1)]) == 0
        assert run(argv + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_text_format(self, capsys, tmp_path):
        src = fam_file(tmp_path / "f.txt", 4, 2, (1, 2))
        assert run(["nu", "--in", src, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "nu: 1" in out
