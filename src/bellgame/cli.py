"""Command-line entry point.

Subcommands: run, prove-bound, gap, verify-censor, list-strategies. All
machine-readable output is byte-identical across identical command lines,
including the seed. Error paths emit one JSON line on stderr.

Exit codes: 0 success, 1 floor enumeration defect, 2 configuration or usage
error, 3 unknown strategy, 4 censor violation or failed noninterference check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import NoReturn, Optional

from ._version import __version__
from .analysis import (
    CLASSICAL_FLOOR,
    bell_gap_report,
    check_feature_i,
    check_feature_ii,
    prove_bound,
    render_stats_text,
    stats_to_csv,
)
from .censor import verify_transcript_invariance
from .core import canonical_json
from .protocol import (
    DEFAULT_PAYLOAD_BYTES,
    DEFAULT_ROUNDS,
    DEFAULT_SHARED_TAPE_BYTES,
    ExperimentAborted,
    RunConfig,
    run_experiment,
    run_settings,
)
from .quantum import QUANTUM_ORACLE_ID, quantum_experiment
from .randomness import derive_run_seed, mix64
from .strategies import build_registry

EXIT_OK = 0
EXIT_DEFECT = 1
EXIT_CONFIG = 2
EXIT_UNKNOWN_STRATEGY = 3
EXIT_VIOLATION = 4

DEFAULT_N_RUNS = 100_000
DEFAULT_SEED = 0

SEED_ENV = "BELLGAME_SEED"
OUTPUT_ENV = "BELLGAME_OUTPUT"

_EPILOG = f"""\
exit codes:
  {EXIT_OK}  success
  {EXIT_DEFECT}  floor enumeration defect (prove-bound)
  {EXIT_CONFIG}  configuration or usage error
  {EXIT_UNKNOWN_STRATEGY}  unknown strategy id
  {EXIT_VIOLATION}  censor violation / failed noninterference check

environment:
  {SEED_ENV}    default master seed when --seed is not given
  {OUTPUT_ENV}  default output path when --output is not given
"""


def _fail(code: int, kind: str, **fields) -> NoReturn:
    """Print the one machine-parsable diagnostic line on stderr and exit."""
    print(canonical_json({"error": kind, **fields}), file=sys.stderr)
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail(EXIT_CONFIG, "config", detail=message)


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_experiment_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_positive_int, default=DEFAULT_N_RUNS, help="number of runs")
    p.add_argument("--seed", type=int, default=None, help=f"master seed (env {SEED_ENV})")
    p.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS, help="message rounds per run")
    p.add_argument("--payload-bytes", type=int, default=DEFAULT_PAYLOAD_BYTES, help="frame size")
    p.add_argument(
        "--tape-bytes", type=int, default=DEFAULT_SHARED_TAPE_BYTES,
        help="shared tape size",
    )


def _add_output_options(p: argparse.ArgumentParser, formats: tuple[str, ...] = ()) -> None:
    p.add_argument(
        "--output", default=None, help=f"output path, '-' for stdout (env {OUTPUT_ENV})"
    )
    if formats:
        p.add_argument("--format", choices=formats, default="text", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellgame",
        description=__doc__.splitlines()[0],
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment with one strategy")
    p_run.add_argument("--strategy", required=True, help="strategy id (see list-strategies)")
    _add_experiment_options(p_run)
    p_run.add_argument("--censor", choices=("on", "off"), default="on")
    _add_output_options(p_run, ("text", "jsonl", "csv"))

    p_bound = sub.add_parser("prove-bound", help="exact floor over the eight instruction sets")
    _add_output_options(p_bound, ("text", "jsonl", "csv"))

    p_gap = sub.add_parser("gap", help="classical strategy vs the quantum oracle")
    p_gap.add_argument("--strategy", default="negotiation", help="classical strategy id")
    _add_experiment_options(p_gap)
    _add_output_options(p_gap, ("text", "jsonl"))

    p_verify = sub.add_parser("verify-censor", help="whole-run counterfactual replay checks")
    p_verify.add_argument("--strategy", default="all", help="strategy id or 'all'")
    _add_experiment_options(p_verify)
    p_verify.set_defaults(n=100)
    _add_output_options(p_verify)

    p_list = sub.add_parser("list-strategies", help="available strategy ids")
    _add_output_options(p_list)

    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    return int(env) if env else DEFAULT_SEED


@contextlib.contextmanager
def _open_output(args):
    path = args.output
    if path is None:
        path = os.environ.get(OUTPUT_ENV)
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", newline="\n") as fh:
        yield fh


def _config_from(args, censor_enabled: bool = True) -> RunConfig:
    return RunConfig(
        rounds=args.rounds,
        payload_bytes=args.payload_bytes,
        shared_tape_bytes=args.tape_bytes,
        censor_enabled=censor_enabled,
    )


def _lookup_strategy(registry, strategy_id: str):
    if strategy_id not in registry:
        available = sorted(registry) + [QUANTUM_ORACLE_ID]
        _fail(EXIT_UNKNOWN_STRATEGY, "unknown-strategy", strategy=strategy_id, available=available)
    return registry[strategy_id]


def _run_report_text(strategy_id, stats) -> str:
    """Narrative report: agreement on equal settings, overall balance, the
    exact floor, then the verdict."""
    eq_same, eq_diff = stats.equal_setting_counts()
    f2 = check_feature_ii(stats)
    observed = stats.overall_same_float
    floor = float(CLASSICAL_FLOOR)
    if observed >= floor - f2.tolerance:
        verdict = (
            "at or above the classical floor: consistent with an "
            "agreed-instruction-set model"
        )
    else:
        verdict = (
            "below the classical floor: no censor-compliant strategy that "
            "always agrees on equal settings can produce this"
        )
    lines = [
        f"strategy: {strategy_id}   runs: {stats.n_runs}",
        (
            f"feature (i)  equal settings give equal colors: "
            f"{'HOLDS' if check_feature_i(stats) else 'FAILS'} "
            f"({eq_diff} violations in {eq_same + eq_diff} equal-setting runs)"
        ),
        (
            f"feature (ii) overall same-color fraction {observed:.6f} "
            f"within {f2.tolerance:.6f} of 1/2: {'HOLDS' if f2.holds else 'FAILS'}"
        ),
        f"classical floor: {CLASSICAL_FLOOR} = {floor:.6f}",
        f"verdict: {verdict}",
        "",
        render_stats_text(stats),
    ]
    return "\n".join(lines)


def _stats_json_line(stats) -> str:
    doc = stats.to_json_dict()
    doc["type"] = "stats"
    doc["feature_i_holds"] = check_feature_i(stats)
    f2 = check_feature_ii(stats)
    doc["feature_ii_holds"] = f2.holds
    doc["feature_ii_tolerance"] = f2.tolerance
    doc["floor"] = str(CLASSICAL_FLOOR)
    return canonical_json(doc)


def _run_source(args, config: RunConfig, registry, seed: int, sink=None):
    """Stats of ``--n`` runs of ``--strategy``, the quantum oracle or a registry
    strategy. A censor violation prints one diagnostic line and exits 4."""
    try:
        if args.strategy == QUANTUM_ORACLE_ID:
            return quantum_experiment(args.n, seed, config=config, sink=sink)
        strategy = _lookup_strategy(registry, args.strategy)
        return run_experiment(config, strategy, args.n, seed, sink=sink)
    except ExperimentAborted as aborted:
        _fail(
            EXIT_VIOLATION,
            "censor-violation",
            strategy=args.strategy,
            completed_runs=aborted.completed_runs,
            violation=json.loads(aborted.violation.to_json()),
        )


def _cmd_run(args) -> int:
    seed = _resolve_seed(args)
    config = _config_from(args, censor_enabled=args.censor == "on")
    registry = build_registry(config.payload_bytes)

    with _open_output(args) as out:
        stats = _run_source(args, config, registry, seed, out if args.format == "jsonl" else None)
        if args.format == "jsonl":
            out.write(_stats_json_line(stats) + "\n")
        elif args.format == "csv":
            out.write(stats_to_csv(stats))
        else:
            out.write(_run_report_text(args.strategy, stats) + "\n")
    return EXIT_OK


def _cmd_prove_bound(args) -> int:
    try:
        report = prove_bound()
    except RuntimeError as defect:
        _fail(EXIT_DEFECT, "bound-defect", detail=str(defect))
    with _open_output(args) as out:
        if args.format == "jsonl":
            out.write(report.to_json() + "\n")
        elif args.format == "csv":
            out.write("instruction_set,same_color_fraction\n")
            for iset, frac in report.per_set_fractions.items():
                out.write(f"{iset.label},{frac}\n")
        else:
            out.write(report.to_text() + "\n")
    return EXIT_OK


def _cmd_gap(args) -> int:
    seed = _resolve_seed(args)
    config = _config_from(args)
    classical = _run_source(args, config, build_registry(config.payload_bytes), seed)
    quantum = quantum_experiment(args.n, seed, config=config)
    report = bell_gap_report(classical, quantum)
    with _open_output(args) as out:
        if args.format == "jsonl":
            out.write(report.to_json() + "\n")
        else:
            out.write(f"classical strategy: {args.strategy}\n")
            out.write(report.to_text() + "\n")
    if report.warning:
        print(canonical_json({"error": "power-warning", "detail": report.warning}), file=sys.stderr)
    return EXIT_OK


def _cmd_verify_censor(args) -> int:
    seed = _resolve_seed(args)
    config = _config_from(args)
    registry = build_registry(config.payload_bytes)
    chosen = []  # the quantum oracle has no wings to replay
    if args.strategy == "all":
        chosen = list(registry.values())
    elif args.strategy != QUANTUM_ORACLE_ID:
        chosen = [_lookup_strategy(registry, args.strategy)]

    failures = 0
    with _open_output(args) as out:
        if not chosen:
            out.write(f"{QUANTUM_ORACLE_ID}: color source, no wings; skipped\n")
        for index, strategy in enumerate(chosen):
            sid = strategy.strategy_id
            if strategy.requires_censor_off:
                out.write(f"{sid}: declared censor-off; skipped\n")
                continue
            lane = mix64(seed ^ (index + 1))
            bad = 0
            try:
                for trial in range(args.n):
                    trial_seed = derive_run_seed(lane, trial)
                    settings = run_settings(trial_seed)
                    if not verify_transcript_invariance(config, strategy, settings, trial_seed, run_index=trial):
                        bad += 1
            except ValueError as rejected:
                # a strategy that rejects this frame or tape size fails alone
                # under 'all'; one asked for by name is a configuration error
                if args.strategy != "all":
                    raise
                out.write(f"{sid}: {rejected}; skipped\n")
                continue
            if bad:
                failures += 1
                out.write(f"{sid}: FAILED {bad}/{args.n} counterfactual replays\n")
            else:
                out.write(f"{sid}: ok ({args.n} runs, transcripts setting-invariant)\n")
    if failures:
        _fail(EXIT_VIOLATION, "noninterference-failure", strategies=failures)
    return EXIT_OK


def _cmd_list_strategies(args) -> int:
    registry = build_registry()
    with _open_output(args) as out:
        for sid, strategy in registry.items():
            notes = []
            if strategy.agreement_based:
                notes.append("agreed-set")
            if strategy.requires_censor_off:
                notes.append("requires censor off")
            suffix = f"  ({', '.join(notes)})" if notes else ""
            out.write(f"{sid}{suffix}\n")
        out.write(f"{QUANTUM_ORACLE_ID}  (color source, no wings)\n")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "prove-bound": _cmd_prove_bound,
    "gap": _cmd_gap,
    "verify-censor": _cmd_verify_censor,
    "list-strategies": _cmd_list_strategies,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return _COMMANDS[args.command](args)
        except ValueError as exc:
            _fail(EXIT_CONFIG, "config", detail=str(exc))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
