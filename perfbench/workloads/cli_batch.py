"""cli_batch: fresh ``python -m emcverify.cli`` processes, one at a time.

Three groups of cases: startup-bound commands on small files, the two
shadow directions on one family of 20,000 members, and the arithmetic audit
at s = 2e6 and 5e7.  Reports are checked field by field (exit codes, sizes,
exact values, per-check verdicts), never byte by byte, so a change in how a
report spells a number does not count as a failure.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from emcverify.engine import audit_inequalities

from .. import oracles
from ..cases import Case, Workload, check
from ..procs import child_env, spawn

AUDIT_S = {"audit_2e6": 2_000_000, "audit_5e7": 50_000_000}
AUDIT_CHECKS = ("slice-indexed", "xi-per-family", "xi-final", "gap-ratio")
BIG_SHAPE = (28, 4, 20_000)  # n, k, members of the shadow family


def _write_family(path: Path, n: int, k: int, members) -> None:
    lines = [f"{n} {k}"] + [" ".join(map(str, oracles.elements(m))) for m in sorted(members)]
    path.write_text("\n".join(lines) + "\n")


def _random_members(rng, n, k, size, universe=None):
    universe = universe or [oracles.mask_of(c) for c in itertools.combinations(range(1, n + 1), k)]
    return sorted(rng.sample(universe, size))


class _Inputs:
    """The files the batch reads, and what the oracles expect from them."""

    def __init__(self, rng: random.Random, work: Path):
        self.work = work
        self.construct = (rng.randint(15, 25), 3, rng.randint(1, 3))
        self.small = (10, 3, _random_members(rng, 10, 3, 25))
        _write_family(work / "small.txt", *self.small)
        self.rainbow = [_random_members(rng, 9, 2, rng.randint(6, 10)) for _ in range(3)]
        for i, members in enumerate(self.rainbow):
            _write_family(work / f"rainbow{i}.txt", 9, 2, members)
        self.sample = (30, 3, 2, rng.randrange(1 << 30))
        # The exact law and the procedure are sized to cost under 10 ms, so
        # that all eight startup-bound cases take about the same time and the
        # median latency falls inside that group, not on its edge.
        n, k, s = 11, 3, 1
        blocks = [oracles.mask_of(c) for c in itertools.combinations(range(s + 2, n + 1), k - 1)]
        self.g = (n, k, s, _random_members(rng, n, k - 1, len(blocks) // 2, blocks))
        _write_family(work / "g.txt", n, k - 1, self.g[3])
        self.procedure = self._procedure(rng, work / "tuple", work / "matching.txt")
        self.lemma4 = (12, 2, 1, rng.randrange(1 << 30))
        n, k, size = BIG_SHAPE
        self.big = (n, k, _random_members(rng, n, k, size))
        _write_family(work / "big.txt", *self.big)

    @staticmethod
    def _procedure(rng, folder: Path, matching_path: Path):
        n, k, s = 15, 3, 2
        folder.mkdir()
        prefix = (1 << (s + 1)) - 1
        layer = [oracles.mask_of(c) for c in itertools.combinations(range(1, n + 1), k)]
        fams = []
        for i in range(s + 1):
            fam = [m for m in layer if rng.random() < (0.3 if m & prefix else 0.05)]
            _write_family(folder / f"f{i}.txt", n, k, fam)
            fams.append(set(fam))
        pool = list(range(s + 2, n + 1))
        rng.shuffle(pool)
        t = (n - s - 1) // k
        blocks = [oracles.mask_of(pool[i * (k - 1):(i + 1) * (k - 1)]) for i in range(t)]
        _write_family(matching_path, n, k - 1, blocks)
        return fams, set(blocks), s


def _cases(inp: _Inputs, env, rss_kb) -> list[Case]:
    work = str(inp.work)
    cli = [sys.executable, "-m", "emcverify.cli"]

    def make(label, args, parse):
        def run(tr):
            code, out, err = tr.call("cli." + label, spawn, cli + args, env, work, rss_kb)
            return parse(code, out, err)

        return Case(label, {"args": " ".join(args)}, run)

    n, k, s = inp.construct

    def p_construct(code, out, err):
        check(code == 0, f"exit {code}: {err.strip()[-200:]}")
        return [int(out.strip())]

    def p_nu(code, out, err):
        check(code == 0, f"exit {code}: {err.strip()[-200:]}")
        rep = json.loads(out)
        check(rep["size"] == len(inp.small[2]), "nu report has the wrong family size")
        return [rep["nu"]]

    def p_rainbow(code, out, err):
        rep = json.loads(out)
        check(code == (0 if rep["complete"] else 1), f"exit {code} disagrees with the verdict")
        if rep["complete"]:
            chosen = [oracles.mask_of(a) for a in rep["assignment"]]
            check(oracles.valid_rainbow([set(f) for f in inp.rainbow], chosen),
                  "rainbow assignment invalid")
        return [rep["complete"]]

    sn, sk, ss, sseed = inp.sample

    def p_sample(code, out, err):
        check(code == 0, f"exit {code}: {err.strip()[-200:]}")
        rep = json.loads(out)
        blocks = [oracles.mask_of(b) for b in rep["blocks"]]
        covered = 0
        x_mask = ((1 << sn) - 1) & ~((1 << (ss + 1)) - 1)
        for b in blocks:
            check(b.bit_count() == sk - 1 and not b & covered and not b & ~x_mask,
                  "sampled blocks overlap, leave X or have the wrong size")
            covered |= b
        check(len(blocks) == (sn - ss - 1) // sk, "wrong number of sampled blocks")
        return [len(blocks)]

    gn, gk, gs, g_members = inp.g
    alpha_t = Fraction(len(g_members), math.comb(gn - gs - 1, gk - 1)) * ((gn - gs - 1) // gk)

    def p_concentration(code, out, err):
        check(code == 0, f"exit {code}: {err.strip()[-200:]}")
        rep = json.loads(out)
        check(rep["verdict"] is True, "exact mean verdict is false")
        check(Fraction(rep["mean"]) == alpha_t == Fraction(rep["expected_mean"]),
              "exact mean != alpha*t")
        check(sum(Fraction(v) for v in rep["distribution"].values()) == 1, "law does not sum to 1")
        return [rep["mean"], rep["distribution"]]

    fams, blocks, ps = inp.procedure

    def p_procedure(code, out, err):
        rep = json.loads(out)
        trace = rep["trace"]
        outcome = trace["outcome"]
        check(outcome in ("rainbow-found", "step2-failed", "assumptions-unmet"),
              f"unexpected outcome {outcome}")
        check(code == (0 if outcome == "rainbow-found" else 1), f"exit {code} disagrees with outcome")
        if outcome == "rainbow-found":
            chosen = [oracles.mask_of(w) for w in rep["witness_sets"]]
            prefix = (1 << (ps + 1)) - 1
            check(oracles.valid_rainbow(fams, chosen)
                  and all(c & ~prefix in blocks for c in chosen), "procedure witness invalid")
        return [outcome, trace["order"], trace["s1"], trace["r"]]

    def p_emc(code, out, err):
        check(code == 0, f"exit {code}: {err.strip()[-200:]}")
        rep = json.loads(out)
        check(rep["all_ok"] is True, "EMC grid reports a false verdict")
        for row in rep["rows"]:
            if "skipped" not in row:
                want = max(oracles.extremal_sizes(row["n"], row["k"], row["s"]))
                check(row["found"] == want, f"EMC maximum {row['found']} != {want} at {row}")
        return [[r.get("found") for r in rep["rows"]]]

    ln, lk, ls, lseed = inp.lemma4

    def p_lemma4(code, out, err):
        check(code == 0, f"exit {code}: {err.strip()[-200:]}")
        rep = json.loads(out)
        check(rep["all_ok"] is True and rep["failures"] == [], "lemma 4 suite reports failures")
        return [rep["trials"]]

    bn, bk, big = inp.big

    def p_shadow(code, out, err):
        check(code == 0, f"exit {code}: {err.strip()[-200:]}")
        rep = json.loads(out)
        check(rep["verdict"] is True and rep["size"] == len(big), "shadow verdict or size wrong")
        check(rep["shadow_size"] >= rep["kk_min"], "shadow below its floor")
        return [rep["shadow_size"], rep["kk_min"]]

    def p_audit(code, out, err):
        check(code == 0, f"exit {code}: {err.strip()[-200:]}")
        rep = json.loads(out)["report"]
        names = [c["name"] for c in rep["checks"]]
        check(len(names) == 11 and all(c["passed"] is True for c in rep["checks"]),
              "audit check failed or missing")
        return [rep["s"], rep["k"], rep["n"], rep["n_prime"], rep["t"], names]

    common = ["--seed", str(sseed)]
    return [
        make("construct_size", ["construct", "--kind", "A", "--n", str(n), "--k", str(k),
                                "--s", str(s), "--size-only"], p_construct),
        make("nu", ["nu", "--in", "small.txt"], p_nu),
        make("rainbow", ["rainbow", "--in", "rainbow0.txt", "rainbow1.txt", "rainbow2.txt"],
             p_rainbow),
        make("sample_matching", ["sample-matching", "--n", str(sn), "--k", str(sk),
                                 "--s", str(ss)] + common, p_sample),
        make("concentration_exact", ["concentration", "--in", "g.txt", "--n", str(gn),
                                     "--k", str(gk), "--s", str(gs), "--exact"], p_concentration),
        make("procedure", ["procedure", "--tuple", "tuple", "--matching", "matching.txt"],
             p_procedure),
        make("verify_emc", ["verify", "emc", "--n-max", "7", "--k-max", "2", "--s-max", "2"], p_emc),
        make("verify_lemma4", ["verify", "lemma4", "--n", str(ln), "--k", str(lk), "--s", str(ls),
                               "--trials", "20", "--seed", str(lseed)], p_lemma4),
        make("shadow_lower", ["shadow", "--in", "big.txt", "--depth", "1"], p_shadow),
        make("shadow_upper", ["shadow", "--in", "big.txt", "--upper", str(bk + 1)], p_shadow),
        make("audit_2e6", ["audit", "--s", str(AUDIT_S["audit_2e6"]), "--k", "2"], p_audit),
    ] + [
        # Twice per pass, so that the p90 latency falls inside the audit group.
        make("audit_5e7", ["audit", "--s", str(AUDIT_S["audit_5e7"]), "--k", "2"], p_audit)
        for _ in range(2)
    ]


def _post_check(cases, inp: _Inputs, records):
    """Compare first-pass outputs with values the oracles compute from the inputs."""
    n, k, s = inp.construct
    bn, bk, big = inp.big
    expected = {
        "construct_size": lambda: [oracles.extremal_sizes(n, k, s)[0]],
        "nu": lambda: [oracles.matching_number(inp.small[2])],
        "rainbow": lambda: [oracles.rainbow_exists([set(f) for f in inp.rainbow])],
        "shadow_lower": lambda: [len(oracles.lower_shadow(big, 1)), oracles.kk_lower_floor(bk, len(big))],
        "shadow_upper": lambda: [oracles.upper_shadow_size(big, bn), oracles.kk_upper_floor(bn, bk, len(big))],
    }
    bad = []
    for case in cases:
        rec = records.get(case.case_id)
        if rec is None:
            continue
        if case.kind in expected:
            want = expected[case.kind]()
            if rec != want:
                bad.append((case.case_id, f"{case.kind}: got {rec}, oracle says {want}"))
        elif case.kind in AUDIT_S:
            s_val = AUDIT_S[case.kind]
            n_val = oracles.scaled_n(s_val, 2)
            want = [s_val, 2, n_val, n_val - s_val - 1, (n_val - s_val - 1) // 2]
            if rec[:5] != want:
                bad.append((case.case_id, f"{case.kind}: report {rec[:5]} != {want}"))
    return bad


def _audit_layers() -> dict:
    """In-process audit timings, summed over the two s of the audit cases."""
    out = {"engine.audit_inequalities.total_ms": 0.0}
    for name in AUDIT_CHECKS:
        out[f"engine.audit_inequalities.{name}_ms"] = 0.0
    for s_val in AUDIT_S.values():
        t0 = time.perf_counter_ns()
        audit_inequalities(s_val, 2)
        out["engine.audit_inequalities.total_ms"] += (time.perf_counter_ns() - t0) / 1e6
        for name in AUDIT_CHECKS:
            t0 = time.perf_counter_ns()
            audit_inequalities(s_val, 2, checks=[name])
            out[f"engine.audit_inequalities.{name}_ms"] += (time.perf_counter_ns() - t0) / 1e6
    return out


def build(seed: int, workdir: Path, src: Path) -> Workload:
    rng = random.Random(seed)
    inp = _Inputs(rng, workdir)
    rss_kb: list[int] = []
    cases = _cases(inp, child_env(src), rss_kb)
    rng.shuffle(cases)
    workload = Workload(cases, child_maxrss_kb=rss_kb, spawn_reference="import numpy",
                        case_is_process=True)
    workload.post_check = lambda records: _post_check(cases, inp, records)
    workload.layer_metrics = lambda tracer, cycles: _audit_layers()
    return workload
