"""Child processes: one at a time, reaped with their own resource usage."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

CHILD_TIMEOUT_S = 150


def child_env(src: Path) -> dict:
    """The caller's environment with the checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, env, cwd, rss_kb: list):
    """Run one child to completion; returns (exit code, stdout, stderr).

    The child is reaped with wait4 so that its own peak RSS (KB) can be
    appended to ``rss_kb``; a child still running after CHILD_TIMEOUT_S is
    killed.
    """
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_kb.append(usage.ru_maxrss)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode()


def interpreter_start_ms(src: Path, cwd, probes: int = 5) -> dict:
    """Median wall time of a bare interpreter and of ``import emcverify.cli`` on top of it."""
    env = child_env(src)
    rss: list[int] = []

    def wall(cmd):
        samples = []
        for _ in range(probes):
            t0 = time.perf_counter_ns()
            code, _out, err = spawn(cmd, env, cwd, rss)
            samples.append((time.perf_counter_ns() - t0) / 1e6)
            if code != 0:
                raise RuntimeError(f"{cmd} exited {code}: {err[-200:]}")
        return statistics.median(samples)

    bare = wall([sys.executable, "-c", "pass"])
    with_import = wall([sys.executable, "-c", "import emcverify.cli"])
    return {"python.bare_ms": bare, "cli.import_ms": with_import - bare}
