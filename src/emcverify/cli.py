"""Command-line interface: one reproducible entry point over all modules.

Exit codes: 0 success, 1 when a report contains a false verdict (or a
procedure run does not reach its goal), 2 on usage errors including
malformed family files (diagnosed with line numbers).  Identical arguments,
including the seed, produce byte-identical JSON reports.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import io
import json
import math
import sys
from dataclasses import is_dataclass
from fractions import Fraction
from pathlib import Path

from . import SPEC_VERSION
from .concentration import exact_eta_report, monte_carlo_eta
from .constructions import (
    build_extremal,
    build_gap_set,
    emc_grid,
    lemma3_bound,
    size_A_layered,
    size_extremal,
)
from .core import (
    FamilyFormatError,
    Params,
    ShapeError,
    elements_from_mask,
    family_to_json,
    read_family,
    write_family,
)
from .densities import default_thresholds, local_lym_sides, sampled_slacks
from .engine import (
    CHECK_NAMES,
    ThresholdConfig,
    arrange_families,
    attempt_rainbow_procedure,
    audit_inequalities,
    audit_scan_down,
)
from .matchings import find_rainbow, matching_number, sample_matching
from .transforms import (
    bt_check,
    kk_min_shadow_size,
    lower_shadow,
    lower_shadow_size,
    shift_closure,
    upper_shadow,
    upper_shadow_size,
)

# Documented default seed; override with --seed.
DEFAULT_SEED = 0x5EED
MONTE_CARLO_TRIALS = 10_000


class UsageError(ValueError):
    pass


def _number_list(text: str, convert, flag: str) -> tuple:
    try:
        return tuple(convert(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from None


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {name: _jsonable(getattr(value, name)) for name in value.__dataclass_fields__}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return value


def _flatten(obj) -> dict:
    flat = {}

    def rec(x, prefix):
        if isinstance(x, dict):
            for key, val in x.items():
                rec(val, f"{prefix}.{key}" if prefix else str(key))
        else:
            flat[prefix] = json.dumps(x) if isinstance(x, list) else x

    rec(_jsonable(obj), "")
    return flat


def _render(args, report: dict, csv_rows=None) -> str:
    if args.format == "csv":
        buf = io.StringIO()
        csv_module.writer(buf).writerows(csv_rows)
        return buf.getvalue()
    report = {**report, "spec_version": SPEC_VERSION}
    if args.format == "json":
        return json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    return "".join(f"{k}: {v}\n" for k, v in sorted(_flatten(report).items()))


# --- subcommand handlers ----------------------------------------------------
#
# Each handler returns (report, verdict), or (report, verdict, csv_rows) when
# its parser is marked table=True; construct --size-only returns a bare count.
# run() writes the result and turns the verdict into the exit code.  An option
# that one mode reads defaults to None, so the other mode can refuse it.


def cmd_construct(args):
    params = Params(n=args.n, k=args.k, s=args.s)
    gap = args.kind.startswith("gap-")
    mask = build_gap_set(params, args.kind[4:]) if gap else None
    size = mask.bit_count() if gap else size_extremal(params, args.kind)
    if args.size_only:
        return size
    report = {"kind": args.kind, "n": args.n, "k": args.k, "s": args.s, "size": size}
    if gap:
        report["elements"] = list(elements_from_mask(mask))
        if args.kind == "gap-dense":
            total, ratios = lemma3_bound(params)
            report["cover_bound_total"] = total
            report["cover_term_ratios"] = [str(r) for r in ratios]
        return report, True
    fam = build_extremal(params, args.kind)
    if args.kind == "A":
        report["size_layered"] = size_A_layered(params)
    if args.family_out:
        write_family(args.family_out, fam)
        report["family_file"] = args.family_out
    else:
        report["family"] = family_to_json(fam)
    return report, True


def cmd_shift(args):
    fam = read_family(args.input)
    rep = shift_closure(fam)
    if args.family_out:
        write_family(args.family_out, rep.result)
    report = {
        "n": fam.n,
        "k": fam.k,
        "size": len(fam),
        "rounds": rep.rounds,
        "applied": rep.applied,
        "was_already_shifted": rep.applied == 0,
        "result": {"family_file": args.family_out} if args.family_out else family_to_json(rep.result),
    }
    return report, True


def cmd_shadow(args):
    if args.depth is not None and args.upper is not None:
        raise UsageError("--depth and --upper are mutually exclusive")
    fam = read_family(args.input)
    if args.upper is not None:
        direction, target = "upper", args.upper
        build, count, step = upper_shadow, upper_shadow_size, target
    else:
        depth = 1 if args.depth is None else args.depth
        direction, target = "lower", fam.k - depth
        build, count, step = lower_shadow, lower_shadow_size, depth
    shadow = build(fam, step) if args.family_out else None  # built only to be written
    size = count(fam, step) if shadow is None else len(shadow)
    floor = kk_min_shadow_size(fam.n, fam.k, len(fam), direction, target_size=target)
    verdict = size >= floor
    report = {
        "direction": direction,
        "n": fam.n,
        "k": fam.k,
        "size": len(fam),
        "target_size": target,
        "shadow_size": size,
        "kk_min": floor,
        "verdict": verdict,
    }
    if args.family_out:
        write_family(args.family_out, shadow)
        report["family_file"] = args.family_out
    return report, verdict


def cmd_nu(args):
    fam = read_family(args.input)
    return {"n": fam.n, "k": fam.k, "size": len(fam), "nu": matching_number(fam)}, True


def cmd_rainbow(args):
    families = tuple(read_family(p) for p in args.inputs)
    witness = find_rainbow(families)
    report = {
        "families": len(families),
        "complete": witness.complete,
        "assignment": [
            list(elements_from_mask(m)) if m is not None else None
            for m in witness.assignment
        ],
    }
    return report, witness.complete


def cmd_sample_matching(args):
    params = Params(n=args.n, k=args.k, s=args.s)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    m = sample_matching(params, seed, t=args.t)
    if args.family_out:
        write_family(args.family_out, m)
    report = {
        "n": args.n,
        "k": args.k,
        "s": args.s,
        "t": len(m),
        "seed": seed,
        "blocks": [list(b) for b in m.as_sets()],
    }
    return report, True


def cmd_concentration(args):
    if args.exact and (args.seed, args.trials) != (None, None):
        raise UsageError("--seed and --trials are not read with --exact")
    g = read_family(args.input)
    params = Params(n=args.n, k=args.k, s=args.s)
    grid = _number_list(args.beta_grid, float, "--beta-grid") if args.beta_grid else None
    if args.exact:
        rep = exact_eta_report(g, params, t=args.t, beta_grid=grid)
        rows = [["eta", "probability"]] + [[eta, str(p)] for eta, p in rep.distribution.items()]
        return {"mode": "exact", **vars(rep)}, rep.verdict, rows
    seed = DEFAULT_SEED if args.seed is None else args.seed
    trials = MONTE_CARLO_TRIALS if args.trials is None else args.trials
    rep = monte_carlo_eta(g, params, trials=trials, seed=seed, t=args.t, beta_grid=grid)
    report = {"mode": "monte-carlo", "seed": seed, "report": rep}
    rows = [["eta", "count"]] + [[k_, v] for k_, v in sorted(rep.eta_histogram.items())]
    return report, True, rows


def _read_config(path: str) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    return raw


def cmd_procedure(args):
    folder = Path(args.tuple_dir)
    if not folder.is_dir():
        raise UsageError(f"{args.tuple_dir} is not a directory")
    paths = sorted(p for p in folder.iterdir() if p.suffix in (".txt", ".json"))
    if not paths:
        raise UsageError(f"no family files (*.txt, *.json) in {args.tuple_dir}")
    families = tuple(read_family(str(p)) for p in paths)
    matching = read_family(args.matching)
    config = None  # the engine derives the default from the tuple and M
    if args.config is not None:
        params = Params(n=families[0].n, k=families[0].k, s=len(families) - 1)
        config = ThresholdConfig.from_params(params, t=len(matching))
        config = config.with_overrides(_read_config(args.config))
    procedure = arrange_families if args.arrange_only else attempt_rainbow_procedure
    trace = procedure(families, matching, config)
    report = {
        "inputs": [p.name for p in paths],
        "matching_file": Path(args.matching).name,
        "trace": trace,
    }
    if trace.witness is not None:
        report["witness_sets"] = [
            list(elements_from_mask(m)) for m in trace.witness
        ]
    return report, trace.outcome in ("arranged", "rainbow-found")


def cmd_audit(args):
    checks = args.checks.split(",") if args.checks else None
    pace = {k: v for k, v in (("factor", args.factor), ("floor_s", args.floor_s)) if v is not None}
    if args.scan_down:
        return audit_scan_down(args.s, args.k, checks=checks, **pace), True
    if pace:
        raise UsageError("--factor and --floor-s are read only with --scan-down")
    report = audit_inequalities(args.s, args.k, checks=checks)
    rows = [["name", "passed", "lhs", "rhs"]] + [
        [c.name, c.passed, c.lhs, c.rhs] for c in report.checks
    ]
    return {"report": report, "all_passed": report.all_passed}, report.all_passed, rows


# --- verify family ----------------------------------------------------------


def _trials_report(args, statement: str, seed: int, slacks, failures, **condition):
    report = {"statement": statement, "n": args.n, "k": args.k, "s": args.s, **condition,
              "trials": args.trials, "seed": seed, "failures": failures,
              "min_slack": min(slacks), "all_ok": not failures}
    return report, not failures


def cmd_verify_lemma4(args):
    seed = DEFAULT_SEED if args.seed is None else args.seed
    beta, draws = sampled_slacks(Params(n=args.n, k=args.k, s=args.s), args.trials, args.max_size, seed)
    slacks = [int(slack / beta) for _, slack in draws]  # (3s+2)|shadow| - |F|, beta = 1/(3s+2)
    failures = [{"trial": i, "size": size, "lhs": size + slack, "rhs": size}
                for i, ((size, _), slack) in enumerate(zip(draws, slacks)) if slack < 0]
    return _trials_report(args, "weighted shadow bound", seed, slacks, failures)


def cmd_verify_theorem3(args):
    params = Params(n=args.n, k=args.k, s=args.s)
    thresholds = (_number_list(args.thresholds, int, "--thresholds") if args.thresholds
                  else tuple(default_thresholds(args.s, args.k, args.b)))
    seed = DEFAULT_SEED if args.seed is None else args.seed
    beta, draws = sampled_slacks(params, args.trials, args.max_size, seed, args.b, thresholds)
    failures = [{"trial": i, "size": size, "beta": str(beta)}
                for i, (size, slack) in enumerate(draws) if slack < 0]
    return _trials_report(args, "depth-b shadow bound", seed, [slack for _, slack in draws],
                          failures, b=args.b, thresholds=thresholds)


def cmd_verify_emc(args):
    rows = emc_grid(args.n_max, args.k_max, args.s_max, args.rainbow)
    all_ok = all(row.get("verdict", True) for row in rows)
    report = {"mode": "rainbow" if args.rainbow else "classic", "rows": rows, "all_ok": all_ok}
    header = ["n", "k", "s", "size_a", "size_b", "expected", "found", "verdict"]
    return report, all_ok, [header] + [[r.get(h, "") for h in header] for r in rows]


def cmd_verify_local_lym(args):
    fam = read_family(args.input)
    ground = fam.n if args.ground is None else args.ground
    shadow_size, lhs, rhs = local_lym_sides(fam, ground)
    verdict = lhs >= rhs
    report = {
        "n": fam.n,
        "k": fam.k,
        "ground": ground,
        "size": len(fam),
        "shadow_size": shadow_size,
        "lhs": lhs,
        "rhs": rhs,
        "verdict": verdict,
    }
    return report, verdict


def cmd_verify_bt(args):
    fam = read_family(args.input)
    u = args.u if args.u is not None else min(fam.k + 1, fam.n)
    check = bt_check(fam, u)
    return {"n": fam.n, "k": fam.k, "u": u, "check": check}, check.verdict


# --- parser -----------------------------------------------------------------


def _int_any_base(text: str) -> int:
    return int(text, 0)


def _required_ints(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    # Argument groups shared by several subcommands, as parent parsers.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json",
                        help="csv only where the report has a table")
    common.add_argument("--out", default=None, help="write the report to this path")
    family_in = argparse.ArgumentParser(add_help=False)
    family_in.add_argument("--in", dest="input", required=True)
    family_out = argparse.ArgumentParser(add_help=False)
    family_out.add_argument("--family-out", "--emit", dest="family_out", default=None,
                            help="write the resulting family to this file")
    nks = argparse.ArgumentParser(add_help=False)
    _required_ints(nks, "n", "k", "s")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_int_any_base, default=None,
                        help=f"RNG seed (default 0x{DEFAULT_SEED:X})")
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=int, default=100)
    trials.add_argument("--max-size", type=int, default=60)

    def add(subparsers, name, handler, *parents, table=False, **kwargs):
        # table: the handler returns csv rows, so --format csv is defined
        p = subparsers.add_parser(name, parents=[common, *parents], **kwargs)
        p.set_defaults(handler=handler, table=table)
        return p

    parser = argparse.ArgumentParser(prog="emcverify")
    sub = parser.add_subparsers(dest="subcommand")

    p = add(sub, "construct", cmd_construct, nks, family_out,
            help="extremal families and gap sets")
    p.add_argument("--kind", required=True, choices=("A", "B", "gap-dense", "gap-sparse"))
    p.add_argument("--size-only", action="store_true")

    add(sub, "shift", cmd_shift, family_in, family_out,
        help="compress a family to its shifted fixpoint")

    p = add(sub, "shadow", cmd_shadow, family_in, family_out,
            help="shadow sizes against the extremal floor")
    p.add_argument("--depth", type=int, default=None, help="lower-shadow depth b (default 1)")
    p.add_argument("--upper", type=int, default=None, help="upper-shadow target size u")

    add(sub, "nu", cmd_nu, family_in, help="exact matching number")

    p = add(sub, "rainbow", cmd_rainbow, help="search a system of disjoint representatives")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)

    p = add(sub, "sample-matching", cmd_sample_matching, nks, seeded, family_out,
            help="seeded uniform block matching")
    p.add_argument("--t", type=int, default=None)

    p = add(sub, "concentration", cmd_concentration, nks, seeded, table=True,
            help="intersection-count distribution, exact or sampled")
    p.add_argument("--in", "--family", dest="input", required=True, help="block family file")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--trials", type=int, default=None,
                   help=f"Monte Carlo trials (default {MONTE_CARLO_TRIALS})")
    p.add_argument("--beta-grid", default=None, help="comma-separated beta values")
    p.add_argument("--exact", action="store_true")

    p = add(sub, "procedure", cmd_procedure,
            help="run the rearrangement and selection steps on a tuple")
    p.add_argument("--tuple", dest="tuple_dir", required=True,
                   help="directory of family files, sorted by name")
    p.add_argument("--matching", required=True)
    p.add_argument("--config", default=None, help="JSON threshold overrides")
    p.add_argument("--arrange-only", action="store_true")

    p = add(sub, "audit", cmd_audit, table=True, help="exact arithmetic audit at scale")
    _required_ints(p, "s", "k")
    p.add_argument("--checks", default=None,
                   help=f"comma-separated subset of: {','.join(CHECK_NAMES)}")
    p.add_argument("--scan-down", action="store_true")
    p.add_argument("--factor", type=int, default=None, help="scan-down divisor of s (default 2)")
    p.add_argument("--floor-s", type=int, default=None, help="scan-down lowest s (default 2)")

    verify = sub.add_parser("verify", help="statement-level verifiers")
    vsub = verify.add_subparsers(dest="what")

    add(vsub, "lemma4", cmd_verify_lemma4, nks, seeded, trials)

    p = add(vsub, "theorem3", cmd_verify_theorem3, nks, seeded, trials)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--thresholds", default=None, help="comma-separated prefix lengths")

    for name, rainbow in (("emc", False), ("rainbow-emc", True)):
        p = add(vsub, name, cmd_verify_emc, table=True)
        _required_ints(p, "n-max", "k-max", "s-max")
        p.set_defaults(rainbow=rainbow)

    p = add(vsub, "local-lym", cmd_verify_local_lym, family_in)
    p.add_argument("--ground", type=int, default=None)

    p = add(vsub, "bt", cmd_verify_bt, family_in)
    p.add_argument("--u", type=int, default=None)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        # audit --scan-down reports a scan, not the table of checks
        if args.format == "csv" and (not args.table or getattr(args, "scan_down", False)):
            raise UsageError("csv format is not defined for this subcommand")
        result = args.handler(args)
        if isinstance(result, int):  # construct --size-only: a bare count
            payload, verdict = f"{result}\n", True
        else:
            report, verdict, *csv_rows = result
            payload = _render(args, report, *csv_rows)
        if args.out:
            Path(args.out).write_text(payload)
        else:
            sys.stdout.write(payload)
    except (FamilyFormatError, UsageError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a crash is neither a verdict nor a bad input
        import traceback

        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3
    return 0 if verdict else 1


main = run  # the console-script entry point


if __name__ == "__main__":
    sys.exit(main())
