"""emcverify benchmark: closed-loop workloads with one client, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_suite --seed 1 --seconds 20 --trace 0

Each workload turns ``--seed`` into a fixed list of cases and runs that list
over and over, one case at a time, for about ``--seconds`` seconds (whole
passes only, so every run sees the same mix).  Every output is checked; a
case that raises or fails its check is counted, logged to stderr, and the
run goes on.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics from spans around the benchmark's calls into the library,
with traced and untraced passes alternating.  The end-to-end times are
corrected for the host's drift with references timed during the run (see
``perfbench/speed.py``).  The last line of stdout is one JSON object; a copy
with the raw times and the environment goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(ROOT))

from perfbench.cases import PER_LAYER, counter_per_pass, span_stats  # noqa: E402
from perfbench.procs import interpreter_start_ms  # noqa: E402
from perfbench.spans import NullTracer, Tracer  # noqa: E402
from perfbench.speed import PROBE_EVERY_S, PROBE_REF_MS, SPAWN_REF_MS, probe_ms, spawn_ms  # noqa: E402

WORKLOADS = ("verify_suite", "random_matchings", "cli_batch")
SETUP_PROBES = 12  # spread evenly over the timed loop, between passes
MIN_PASSES = 2
MAX_LOGGED_FAILURES = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load(name: str):
    return importlib.import_module(f"perfbench.workloads.{name}")


def setup_probe(args) -> int:
    """Child side of a setup_s sample: import, build the inputs, say ready."""
    module = load(args.workload)
    work = Path(tempfile.mkdtemp(dir=OUT))
    try:
        module.build(args.seed, work, SRC)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def time_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until its first case could start."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = (time.perf_counter_ns() - t0) / 1e9
    proc.stdout.read()
    proc.stdout.close()
    code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited {code}")
    return elapsed


def quantile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(sorted_ms):
    """Highest of p99.9, p99, p90 with at least 10 samples beyond it.

    With fewer than 100 samples none qualifies; p90 is reported then, and
    the count beyond it says so.
    """
    n = len(sorted_ms)
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        beyond = int(n * (1 - q) + 1e-9)
        if beyond >= 10 or label == "p90":
            return label, quantile(sorted_ms, q), beyond


class Run:
    """One closed-loop run over a workload's case list."""

    def __init__(self, workload):
        self.workload = workload
        self.cases = workload.cases
        self.first: dict[int, object] = {}
        self.runs = [0] * len(self.cases)
        self.bad: set[int] = set()
        self.failed = 0
        self.attempted = 0
        self.logged = 0
        self.passes: list[tuple[bool, int, list[int]]] = []  # (traced, pass ns, case ns)
        self.speed_ms: list[float] = []  # speed probes, timed between cases
        self.spawn_ms: list[float] = []  # the workload's process-start reference
        self.next_probe = 0
        self.probing_ns = 0  # time spent on both references

    def spawn_probe(self) -> None:
        t0 = time.perf_counter_ns()
        self.spawn_ms.append(spawn_ms(self.workload.spawn_reference, ROOT))
        self.probing_ns += time.perf_counter_ns() - t0

    def probes_before_case(self) -> None:
        """The speed probe if it is due, and the spawn reference if every case is a process."""
        t0 = time.perf_counter_ns()
        if t0 >= self.next_probe:
            self.speed_ms.append(probe_ms(self.workload.speed_probe))
            t1 = time.perf_counter_ns()
            self.next_probe = t1 + int(PROBE_EVERY_S * 1e9)
            self.probing_ns += t1 - t0
        if self.workload.case_is_process:
            self.spawn_probe()

    def fail(self, case, msg: str, count: int = 1) -> None:
        self.failed += count
        if self.logged < MAX_LOGGED_FAILURES:
            print(f"FAILED case {case.case_id} {case.kind} {case.params}: {msg}", file=sys.stderr)
            self.logged += 1

    def one_pass(self, index: int, tracer) -> None:
        if tracer.enabled:
            tracer.begin_cycle(index)
        lat = []
        probing = self.probing_ns
        t_pass = time.perf_counter_ns()
        for case in self.cases:
            self.probes_before_case()
            self.attempted += 1
            self.runs[case.case_id] += 1
            t0 = time.perf_counter_ns()
            try:
                with tracer.case(case.case_id):
                    record = case.run(tracer)
            except Exception as exc:  # a failing case is counted, not fatal
                lat.append(time.perf_counter_ns() - t0)
                self.bad.add(case.case_id)
                self.fail(case, f"{type(exc).__name__}: {exc}")
                continue
            lat.append(time.perf_counter_ns() - t0)
            if case.case_id not in self.first:
                self.first[case.case_id] = record
            elif record != self.first[case.case_id]:
                self.bad.add(case.case_id)
                self.fail(case, "output differs from the first pass of the same input")
        probing = self.probing_ns - probing
        self.passes.append((tracer.enabled, time.perf_counter_ns() - t_pass - probing, lat))

    def loop(self, seconds: float, traced_tracer=None, between=None) -> None:
        """Whole passes for about ``seconds``; ``between(elapsed_s)`` runs before each pass.

        Time spent in ``between`` (the set-up samples) and on the references
        does not count towards ``seconds``: the cases get the whole of it.
        """
        null = NullTracer()
        start = time.perf_counter_ns()
        probed = self.probing_ns
        outside = 0  # time in ``between`` beyond the references it took

        def elapsed():
            return (time.perf_counter_ns() - start - outside - self.probing_ns + probed) / 1e9

        index = 0
        while True:
            if between is not None:
                t0, p0 = time.perf_counter_ns(), self.probing_ns
                between(elapsed())
                outside += time.perf_counter_ns() - t0 - (self.probing_ns - p0)
            tracer = traced_tracer if traced_tracer is not None and index % 2 == 0 else null
            self.one_pass(index, tracer)
            index += 1
            # Start another pass only if it is expected to end in time.
            if index >= MIN_PASSES and elapsed() * (index + 1) / index > seconds:
                break

    def post_check(self) -> None:
        """Brute-force oracles on first-pass records; a bad case fails every run of it."""
        for case_id, msg in self.workload.post_check(self.first):
            if case_id not in self.bad:
                self.bad.add(case_id)
                self.fail(self.cases[case_id], msg, count=self.runs[case_id])

    def digest(self) -> str:
        records = [self.first.get(i) for i in range(len(self.cases))]
        return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()

    def throughput(self, traced: bool) -> float:
        times = [ns for t, ns, _ in self.passes if t == traced]
        return len(self.cases) / (statistics.median(times) / 1e9) if times else 0.0

    def speed_scale(self) -> float:
        """The probe's reference time over its median in this run; times are multiplied by it."""
        return PROBE_REF_MS[self.workload.speed_probe] / statistics.median(self.speed_ms)


def end_to_end(run: Run, setup_samples, workload) -> tuple[dict, dict, list[str]]:
    """The corrected end-to-end metrics, the same before correction, and their printed lines.

    In-process case times are scaled by the speed probe.  Process-start times
    (set-up, and every case of a one-process-per-case workload) have the
    run's median spawn reference replaced by its nominal time.
    """
    lat_ms = sorted(ns / 1e6 for traced, _, lat in run.passes if not traced for ns in lat)
    label, tail_ms, beyond = tail(lat_ms)
    if workload.child_maxrss_kb:
        rss_mb = max(workload.child_maxrss_kb) / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = {
        "cases_per_s": (run.throughput(False), "cases/s"),
        "case_p50_ms": (statistics.median(lat_ms), "ms"),
        "case_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    scale = run.speed_scale()
    spawn_med = statistics.median(run.spawn_ms)
    excess_ms = spawn_med - SPAWN_REF_MS[workload.spawn_reference]
    metrics = dict(raw)
    metrics["setup_s"] = (raw["setup_s"][0] - excess_ms / 1000, "s")
    if workload.case_is_process:
        pass_s = len(run.cases) / raw["cases_per_s"][0]
        metrics["cases_per_s"] = (len(run.cases) / (pass_s - len(run.cases) * excess_ms / 1000),
                                  "cases/s")
        for name in ("case_p50_ms", "case_tail_ms"):
            metrics[name] = (raw[name][0] - excess_ms, "ms")
    else:
        metrics["cases_per_s"] = (raw["cases_per_s"][0] / scale, "cases/s")
        for name in ("case_p50_ms", "case_tail_ms"):
            metrics[name] = (raw[name][0] * scale, "ms")
    notes = {
        "cases_per_s": f"pass of {len(run.cases)} cases, median of {len(run.passes)} passes",
        "case_p50_ms": f"n={len(lat_ms)}",
        "case_tail_ms": f"{label}, {beyond} samples beyond, n={len(lat_ms)}",
        "setup_s": f"median of {len(setup_samples)} fresh processes",
        "peak_rss_mb": "max over CLI children" if workload.child_maxrss_kb else "this process",
    }
    ratio = run.failed / run.attempted if run.attempted else 0.0
    lines = [f"{name:<14} {value:.6g} {unit} ({notes[name]}; raw {raw[name][0]:.6g})"
             for name, (value, unit) in metrics.items()]
    lines.append(f"{'failed_ratio':<14} {ratio:.6g} ratio ({run.failed} failed of {run.attempted} attempted)")
    ref = workload.spawn_reference
    lines.append(f"{'spawn ref':<14} python -c {ref!r}: median {spawn_med:.6g} ms of "
                 f"{len(run.spawn_ms)}; {excess_ms:+.6g} ms beyond the nominal "
                 f"{SPAWN_REF_MS[ref]:g} ms taken off set-up"
                 + (" and off every case" if workload.case_is_process else ""))
    probe = workload.speed_probe
    lines.append(f"{'speed probe':<14} {probe}: median {statistics.median(run.speed_ms):.6g} ms "
                 f"of {len(run.speed_ms)}"
                 + ("" if workload.case_is_process else
                    f"; case times scaled by {scale:.6g} to a {PROBE_REF_MS[probe]:g} ms probe"))
    return metrics, raw, lines


def per_layer(run: Run, tracer, workload, interp: dict):
    """Per-layer values of the metrics this workload records, and the throughput bases.

    A metric belongs to a workload when the workload calls the function it
    names or records its counter.  Only those are measured and printed; the
    JSON result lists every per-layer metric, so the others read 0 there.
    """
    cycles = [i for i, (traced, _, _) in enumerate(run.passes) if traced]
    busy, calls, totals = span_stats(tracer, cycles)
    counted = {name for c in cycles for name in tracer.counters.get(c, {})}

    def total_count(name):
        return sum(tracer.counters.get(c, {}).get(name, 0) for c in cycles)

    def rate(count, span):
        return count / totals[span] if totals.get(span) else 0.0

    values = {}
    for name, unit, _better in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if base not in calls and name not in counted:
            continue
        if stat == "busy_s":
            values[name] = busy.get(base, 0.0)
        elif stat == "calls":
            values[name] = calls[base]
        elif stat == "wall_ms":
            values[name] = busy.get(base, 0.0) / calls[base] * 1000
        elif unit in ("count", "bytes"):
            values[name] = counter_per_pass(tracer, cycles, name)
    if "matchings.find_rainbow" in calls:
        values["matchings.find_rainbow.complete_ratio"] = (
            counter_per_pass(tracer, cycles, "matchings.find_rainbow.complete")
            / calls["matchings.find_rainbow"])
    if "matchings.sample_matching" in calls:
        values["matchings.sample_matching.per_s"] = rate(
            calls["matchings.sample_matching"] * len(cycles), "matchings.sample_matching")
    for fn, unit in (("monte_carlo_eta", "trials"), ("event_probe", "trials"),
                     ("exact_eta_distribution", "matchings")):
        span = f"concentration.{fn}"
        if span in calls:
            values[f"{span}.{unit}_per_s"] = rate(total_count(f"{span}.{unit}"), span)
    values["bench.case.self_s"] = busy.get("bench.case", 0.0)
    values.update(workload.layer_metrics(tracer, cycles))
    values.update(interp)
    bases = run.throughput(True), run.throughput(False)
    values["bench.trace_overhead_ratio"] = bases[0] / bases[1] if bases[1] else 0.0
    return values, bases


def environment(seed: int) -> dict:
    # Imported here, not at the top: a setup_s probe runs this file too and
    # should not pay for them.
    import importlib.metadata
    import platform

    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": seed,
    }


def known_digest(workload: str, seed: int):
    """The exact-output digest recorded for this seed in the committed baseline, if any."""
    path = HERE / "baseline" / "summary.json"
    if not path.is_file():
        return None
    entry = json.loads(path.read_text())["workloads"].get(workload, {})
    return entry.get("digests", {}).get(str(seed))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "emcverify" / "__init__.py").is_file():
        print(f"error: no emcverify sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    module = load(args.workload)
    import emcverify

    if SRC not in Path(emcverify.__file__).resolve().parents:
        print(f"error: emcverify imported from {emcverify.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(dir=OUT))
    try:
        workload = module.build(args.seed, work, SRC)
        run = Run(workload)
        tracer = Tracer() if args.trace else None
        setup_samples: list[float] = []

        def probe_setup(elapsed: float) -> None:
            # The machine's speed drifts over tens of seconds, so the set-up
            # samples are spread over the run like the passes are.  Each one
            # follows a sample of the workload's process-start reference,
            # unless the cases already take one each.
            due = (SETUP_PROBES if elapsed >= args.seconds
                   else int(elapsed * SETUP_PROBES / args.seconds) + 1)
            while len(setup_samples) < due:
                if not workload.case_is_process:
                    run.spawn_probe()
                setup_samples.append(time_setup(args))

        run.loop(args.seconds, tracer, None if args.trace else probe_setup)
        run.post_check()
        if not args.trace:
            probe_setup(args.seconds)
        interp = interpreter_start_ms(SRC, work) if args.trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = run.digest()
    expected = known_digest(args.workload, args.seed)
    correct = run.failed == 0 and expected in (None, digest)
    if expected not in (None, digest):
        print(f"FAILED digest {digest} != recorded {expected}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={len(run.passes)} "
          f"cases/pass={len(run.cases)} digest={digest[:16]}")
    if args.trace:
        used, (traced_cps, untraced_cps) = per_layer(run, tracer, workload, interp)
        metrics = {name: (used.get(name, 0.0), unit) for name, unit, _ in PER_LAYER}
        for name, (value, unit) in metrics.items():
            if name in used:
                print(f"{name:<52} {value:.6g} {unit}")
        print(f"  (trace overhead: traced {traced_cps:.6g} cases/s against untraced "
              f"{untraced_cps:.6g} cases/s)")
        print(f"  ({len(metrics) - len(used)} per-layer metrics belong to other workloads "
              f"and read 0 in the JSON result)")
        print(f"  (per-layer times are not scaled; the {workload.speed_probe} speed probe's "
              f"median was {statistics.median(run.speed_ms):.6g} ms against its "
              f"{PROBE_REF_MS[workload.speed_probe]:g} ms reference)")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
    else:
        metrics, raw, lines = end_to_end(run, setup_samples, workload)
        print("\n".join(lines))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  digest=digest, passes=len(run.passes), environment=environment(args.seed),
                  speed_probe_ms=statistics.median(run.speed_ms), speed_probes=len(run.speed_ms))
    if run.spawn_ms:
        record["spawn_reference_ms"] = statistics.median(run.spawn_ms)
    if args.trace:
        record["layers_used"] = sorted(used)
    else:
        record["raw_metrics"] = {name: value for name, (value, _unit) in raw.items()}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
