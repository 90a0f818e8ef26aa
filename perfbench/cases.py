"""What a workload is made of: cases, their checks, and the per-layer list."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable


class CheckFailed(AssertionError):
    """A library output failed the benchmark's correctness check."""


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def exact(value):
    """JSON-able form of an exact output (Fractions as 'p/q' strings)."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    if isinstance(value, dict):
        return {str(k): exact(v) for k, v in value.items()}
    return value


@dataclass
class Case:
    """One unit of closed-loop work: a statement check, sampler call or CLI run.

    ``run(tracer)`` does the work, checks its outputs and returns a record of
    the exact outputs; records feed the per-seed digest, and a repeat of the
    case must return the same record.
    """

    kind: str
    params: dict
    run: Callable
    case_id: int = -1


@dataclass
class Workload:
    cases: list[Case]
    # post_check(records) -> [(case_id, message)], brute-force oracles on a
    # deterministic sample of first-pass records, run after the timed loop.
    post_check: Callable = lambda records: []
    # layer_metrics(tracer, traced_cycles) -> {name: value} for this workload.
    layer_metrics: Callable = lambda tracer, cycles: {}
    # Per-case peak RSS in KB when the work runs in child processes.
    child_maxrss_kb: list[int] = field(default_factory=list)
    # What a fresh interpreter of this workload imports besides emcverify
    # (a key of speed.SPAWN_REF_MS), and whether every case is such a process.
    spawn_reference: str = "pass"
    case_is_process: bool = False
    # The speed probe whose drift this workload's in-process times follow
    # (a key of speed.PROBE_REF_MS).
    speed_probe: str = "loops"

    def __post_init__(self):
        for i, case in enumerate(self.cases):
            case.case_id = i


def median(values, default=0.0):
    return statistics.median(values) if values else default


# Per-layer metrics: (name, unit, better).  busy_s and counts are per pass
# over the seed's case list (the median pass among the traced ones); rates
# are totals over all traced passes.
PER_LAYER = [
    ("core.family_to_text.busy_s", "s", "lower"),
    ("core.parse_family_text.busy_s", "s", "lower"),
    ("core.bytes_parsed", "bytes", "higher"),
    ("constructions.build_extremal.busy_s", "s", "lower"),
    ("constructions.build_extremal.members_out", "count", "higher"),
    ("transforms.shift_closure.busy_s", "s", "lower"),
    ("transforms.shift_closure.calls", "count", "higher"),
    ("transforms.shift_closure.applied", "count", "higher"),
    ("transforms.is_shifted.busy_s", "s", "lower"),
    ("transforms.lower_shadow.busy_s", "s", "lower"),
    ("transforms.lower_shadow.sets_out", "count", "higher"),
    ("transforms.bt_check.busy_s", "s", "lower"),
    ("transforms.kk_min_shadow_size.busy_s", "s", "lower"),
    ("transforms.enumerate_shifted_families.busy_s", "s", "lower"),
    ("transforms.enumerate_shifted_families.families_out", "count", "higher"),
    ("densities.verify_lemma4.busy_s", "s", "lower"),
    ("densities.verify_theorem3.busy_s", "s", "lower"),
    ("densities.local_lym_ratio.busy_s", "s", "lower"),
    ("densities.alpha_profile.busy_s", "s", "lower"),
    ("matchings.matching_number.busy_s", "s", "lower"),
    ("matchings.matching_number.calls", "count", "higher"),
    ("matchings.find_rainbow.busy_s", "s", "lower"),
    ("matchings.find_rainbow.complete_ratio", "ratio", "higher"),
    ("matchings.hall_rainbow_in_matching.busy_s", "s", "lower"),
    ("matchings.sample_matching.per_s", "1/s", "higher"),
    ("concentration.monte_carlo_eta.busy_s", "s", "lower"),
    ("concentration.monte_carlo_eta.trials_per_s", "trials/s", "higher"),
    ("concentration.event_probe.busy_s", "s", "lower"),
    ("concentration.event_probe.trials_per_s", "trials/s", "higher"),
    ("concentration.exact_eta_distribution.busy_s", "s", "lower"),
    ("concentration.exact_eta_distribution.matchings_per_s", "matchings/s", "higher"),
    ("engine.attempt_rainbow_procedure.busy_s", "s", "lower"),
    ("engine.attempt_rainbow_procedure.calls", "count", "higher"),
    ("engine.attempt_rainbow_procedure.rainbow_found", "count", "higher"),
    ("engine.attempt_rainbow_procedure.step2_failed", "count", "lower"),
    ("engine.attempt_rainbow_procedure.assumptions_unmet", "count", "lower"),
    ("engine.audit_inequalities.total_ms", "ms", "lower"),
    ("engine.audit_inequalities.slice-indexed_ms", "ms", "lower"),
    ("engine.audit_inequalities.xi-per-family_ms", "ms", "lower"),
    ("engine.audit_inequalities.xi-final_ms", "ms", "lower"),
    ("engine.audit_inequalities.gap-ratio_ms", "ms", "lower"),
    ("python.bare_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.construct_size.wall_ms", "ms", "lower"),
    ("cli.nu.wall_ms", "ms", "lower"),
    ("cli.rainbow.wall_ms", "ms", "lower"),
    ("cli.sample_matching.wall_ms", "ms", "lower"),
    ("cli.concentration_exact.wall_ms", "ms", "lower"),
    ("cli.procedure.wall_ms", "ms", "lower"),
    ("cli.verify_emc.wall_ms", "ms", "lower"),
    ("cli.verify_lemma4.wall_ms", "ms", "lower"),
    ("cli.shadow_lower.wall_ms", "ms", "lower"),
    ("cli.shadow_upper.wall_ms", "ms", "lower"),
    ("cli.audit_2e6.wall_ms", "ms", "lower"),
    ("cli.audit_5e7.wall_ms", "ms", "lower"),
    ("bench.case.self_s", "s", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "higher"),
]


def span_stats(tracer, cycles):
    """Per-pass self time (median over the traced passes) and call counts per span name."""
    cycles = set(cycles)
    selfs = tracer.self_times()
    per_name: dict[str, list[float]] = {}
    for (name, cycle), secs in selfs.items():
        if cycle in cycles:
            per_name.setdefault(name, []).append(secs)
    busy = {name: median(v) for name, v in per_name.items()}
    calls: dict[str, int] = {}
    totals: dict[str, float] = {}
    for name_idx, start, end, _parent, _case, cycle in tracer.spans:
        if cycle in cycles:
            name = tracer.names[name_idx]
            calls[name] = calls.get(name, 0) + 1
            totals[name] = totals.get(name, 0.0) + (end - start) / 1e9
    n = max(len(cycles), 1)
    return busy, {k: v / n for k, v in calls.items()}, totals


def counter_per_pass(tracer, cycles, name):
    values = [tracer.counters.get(c, {}).get(name, 0) for c in cycles]
    return median(values, 0)
