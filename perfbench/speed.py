"""How fast the machine runs right now: references timed during every run.

The host under the benchmark changes speed by up to 1.7x over minutes: a
fixed pass of ``verify_suite`` took 460 ms in one 30-second window and
780 ms in another, and no window length smooths that out.  Every run
therefore times a speed probe about every PROBE_EVERY_S seconds, between
cases, and the times of in-process cases are scaled by ``PROBE_REF_MS /
median probe time`` of the run: they read as if the probe had taken
PROBE_REF_MS.  A slower library still shows in full, because the probes
call nothing in ``emcverify``.

Starting a process drifts on its own: ``import numpy`` in a fresh
interpreter took 245 ms for a minute and 115-160 ms after it, while the
probe held steady.  So next to every set-up sample the run also times a
fresh interpreter that imports what the workload imports besides
``emcverify`` (SPAWN_REF_MS), and process-start times (set-up, and every
case of a workload that runs one process per case) have the run's median
of it replaced by its nominal time.

The probes do what the library's pure-Python layers do.  ``loops`` runs a
plain include/skip matching-number search on bitmasks, builds a lower shadow
as a set, counts in a dict and sorts; it follows ``random_matchings``.
``memo`` adds a memoized matching-number search whose memo grows to 1,506
entries, because slow periods slow such dict- and list-heavy code, the bulk
of ``verify_suite``, more than small tight loops.  Their inputs are fixed
here, independent of ``--seed``.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time

# The time in ms of each speed probe that the scaled metrics are expressed at.
PROBE_REF_MS = {"loops": 6.0, "memo": 15.0}
PROBE_EVERY_S = 0.3
# ``python -c <code>`` for each process-start reference, and its nominal ms.
SPAWN_REF_MS = {"pass": 50.0, "import numpy": 150.0}

_rng = random.Random(20210416)
_FAMILY = sorted({sum(1 << e for e in _rng.sample(range(12), 3)) for _ in range(40)})
_ROUNDS = 14
_rng = random.Random(7)
_MEMO_FAMILY = sorted({sum(1 << e for e in _rng.sample(range(14), 3)) for _ in range(100)})


def _matching_number(members) -> int:
    best = 0

    def rec(i, used, size):
        nonlocal best
        best = max(best, size)
        if size + len(members) - i <= best:
            return
        for j in range(i, len(members)):
            if not members[j] & used:
                rec(j + 1, used | members[j], size + 1)

    rec(0, 0, 0)
    return best


def _memo_matching_number(members) -> int:
    memo: dict[int, int] = {}

    def best(used):
        cached = memo.get(used)
        if cached is not None:
            return cached
        avail = [m for m in members if not m & used]
        out = 0
        if avail:
            free = 0
            for m in avail:
                free |= m
            low = free & -free
            out = best(used | low)
            for m in avail:
                if m & low:
                    out = max(out, 1 + best(used | m))
        memo[used] = out
        return out

    return best(0) * 10_000 + len(memo)


def _loops() -> int:
    total = 0
    for r in range(_ROUNDS):
        fam = _FAMILY[r % 12:r % 12 + 24]
        total += _matching_number(fam)
        shadow = {m ^ (1 << e) for m in fam for e in range(12) if m >> e & 1}
        counts: dict[int, int] = {}
        for a, b in itertools.combinations(sorted(shadow), 2):
            key = (a & b).bit_count()
            counts[key] = counts.get(key, 0) + 1
        total += sorted(counts.items())[-1][1]
    return total


def _memo() -> int:
    return _memo_matching_number(_MEMO_FAMILY) + _loops()


_PROBES = {"loops": _loops, "memo": _memo}
_results: dict[str, set[int]] = {name: set() for name in _PROBES}


def probe_ms(kind: str) -> float:
    """Wall time of one speed probe, in ms; raises if the probe's own result changed."""
    t0 = time.perf_counter_ns()
    _results[kind].add(_PROBES[kind]())
    elapsed = (time.perf_counter_ns() - t0) / 1e6
    if len(_results[kind]) != 1:
        raise RuntimeError(f"speed probe {kind} returned a different result")
    return elapsed


def spawn_ms(code: str, cwd) -> float:
    """Wall time in ms of a fresh ``python -c code``, waited for."""
    t0 = time.perf_counter_ns()
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=120)
    elapsed = (time.perf_counter_ns() - t0) / 1e6
    if done.returncode != 0:
        raise RuntimeError(f"python -c {code!r} exited {done.returncode}")
    return elapsed
