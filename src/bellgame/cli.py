"""Command-line entry point.

Subcommands: run, prove-bound, gap, verify-censor, list-strategies. All
machine-readable output is byte-identical across identical command lines,
including the seed. ``main`` opens the output path before any check of every
command. One function, ``_fail``, prints each JSON diagnostic line on stderr;
a stderr that refuses it loses the line but never changes the exit code.

run, prove-bound and gap each build a report with one method per --format,
which ``_write_report`` writes: ``_RunReport`` here, ``BoundReport`` and
``GapReport`` from ``analysis``.

Exit codes: 0 success, 1 floor enumeration defect, 2 configuration or usage
error, or a failed write (a closed pipe, a full disk), 3 unknown strategy,
4 censor violation, protocol error or failed noninterference check.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys
from typing import NamedTuple, NoReturn, Optional

from ._version import __version__
from .analysis import (
    CLASSICAL_FLOOR,
    ExperimentStats,
    bell_gap_report,
    check_feature_i,
    check_feature_ii,
    hoeffding_radius,
    prove_bound,
)
from .censor import ExperimentAborted, verify_transcript_invariance
from .core import ALL_SETTING_PAIRS, canonical_json
from .protocol import (
    DEFAULT_PAYLOAD_BYTES,
    DEFAULT_ROUNDS,
    DEFAULT_SHARED_TAPE_BYTES,
    RunConfig,
    run_experiment,
    run_settings,
)
from .quantum import QUANTUM_ORACLE_ID, quantum_experiment
from .randomness import MASK64, derive_run_seed, mix64
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
  {EXIT_CONFIG}  configuration or usage error, failed write
  {EXIT_UNKNOWN_STRATEGY}  unknown strategy id
  {EXIT_VIOLATION}  censor violation, protocol error / failed noninterference check

environment:
  {SEED_ENV}    default master seed when --seed is not given
  {OUTPUT_ENV}  default output path when --output is not given
"""


def _fail(code: int, kind: str, **fields) -> NoReturn:
    """Print one JSON diagnostic line on stderr, if it takes it; exit with ``code``."""
    with contextlib.suppress(OSError):
        print(canonical_json({"error": kind, **fields}), file=sys.stderr, flush=True)
    raise SystemExit(code)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail(EXIT_CONFIG, "config", detail=message)

    def _print_message(self, message, file=None):
        # argparse's own drops an OSError, so a --help or --version that
        # cannot be written would exit 0; here main reports it as exit 2
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


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
    p.add_argument("--tape-bytes", type=int, default=DEFAULT_SHARED_TAPE_BYTES, help="shared tape size")


def _add_output_options(p: argparse.ArgumentParser, formats: tuple[str, ...] = ()) -> None:
    p.add_argument(
        "--output", default=None, help=f"output path, '-' for stdout (env {OUTPUT_ENV})"
    )
    if formats:
        p.add_argument("--format", choices=formats, default="text", help="output format")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one
    in the process. Parsing leaves it unchanged, and argparse reads the help
    width (``COLUMNS``) each time it formats help, not here."""
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
    p_run.set_defaults(command_fn=_cmd_run)

    p_bound = sub.add_parser("prove-bound", help="exact floor over the eight instruction sets")
    _add_output_options(p_bound, ("text", "jsonl", "csv"))
    p_bound.set_defaults(command_fn=_cmd_prove_bound)

    p_gap = sub.add_parser("gap", help="classical strategy vs the quantum oracle")
    p_gap.add_argument("--strategy", default="negotiation", help="classical strategy id")
    _add_experiment_options(p_gap)
    _add_output_options(p_gap, ("text", "jsonl"))
    p_gap.set_defaults(command_fn=_cmd_gap)

    p_verify = sub.add_parser("verify-censor", help="whole-run counterfactual replay checks")
    p_verify.add_argument("--strategy", default="all", help="strategy id or 'all'")
    _add_experiment_options(p_verify)
    p_verify.set_defaults(n=100, command_fn=_cmd_verify_censor)
    _add_output_options(p_verify)

    p_list = sub.add_parser("list-strategies", help="available strategy ids")
    _add_output_options(p_list)
    p_list.set_defaults(command_fn=_cmd_list_strategies)

    return parser


def _resolve_seed(args) -> int:
    seed, env, source = args.seed, os.environ.get(SEED_ENV), ""
    if seed is None and env:
        source = f"{SEED_ENV}: "  # names the variable as argparse names --seed
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"{source}invalid int value: {env!r}") from None
    seed = DEFAULT_SEED if seed is None else seed
    if not 0 <= seed <= MASK64:
        raise ValueError(f"{source}master seed must be in [0, 2**64), got {seed}")
    return seed


@contextlib.contextmanager
def _open_output(args):
    path = args.output if args.output is not None else os.environ.get(OUTPUT_ENV) or "-"
    if path == "-":
        yield sys.stdout
        sys.stdout.flush()  # a buffered stdout's failed write is raised here, not at exit
        return
    # opened without truncating, so a command that fails before its first
    # write leaves the file as it was, or absent if it made the file; that
    # write empties a regular file (a device or a FIFO cannot be truncated)
    try:
        fd, created = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
    except FileExistsError:
        fd, created = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), False
    with open(fd, "w", newline="\n") as fh:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            def first_write(text):
                del fh.write  # every later write is the file's own
                fh.truncate(0)
                return fh.write(text)

            fh.write = first_write
        try:
            yield fh
        except BaseException:
            if created and "write" in vars(fh):  # failed before its first write
                os.unlink(path)
            raise


def _config_from(args, censor_enabled: bool = True) -> RunConfig:
    return RunConfig(
        rounds=args.rounds, payload_bytes=args.payload_bytes, shared_tape_bytes=args.tape_bytes,
        censor_enabled=censor_enabled,
    )


def _lookup_strategy(registry, strategy_id: str):
    if strategy_id not in registry:
        available = sorted(registry) + [QUANTUM_ORACLE_ID]
        _fail(EXIT_UNKNOWN_STRATEGY, "unknown-strategy", strategy=strategy_id, available=available)
    return registry[strategy_id]


class _RunReport(NamedTuple):
    """``run``'s result in each output format. Rows follow ``ALL_SETTING_PAIRS``,
    so hand-built tallies print in the same order as an experiment's."""

    strategy_id: str
    stats: ExperimentStats

    def to_text(self) -> str:
        """Equal-setting agreement, overall balance, floor, verdict, per-pair table."""
        stats = self.stats
        eq_same, eq_diff = stats.equal_setting_counts()
        f2 = check_feature_ii(stats)
        observed = stats.overall_same_float
        floor = float(CLASSICAL_FLOOR)
        verdict = (
            "at or above the classical floor: consistent with an agreed-instruction-set model"
            if observed >= floor - f2.tolerance
            else "below the classical floor: no censor-compliant strategy that always agrees on equal settings can produce this"
        )
        lines = [
            f"strategy: {self.strategy_id}   runs: {stats.n_runs}",
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
            "pair   runs     same      fraction",
        ]
        for pair in ALL_SETTING_PAIRS:
            a, b = stats.counts[pair]
            n = a + b
            frac = f"{a / n:.6f}" if n else "-"
            lines.append(f"{int(pair.left)},{int(pair.right)}  {n:8d} {a:8d}  {frac:>10}")
        lines.append(f"overall: {stats.total_same}/{stats.n_runs} same = {stats.overall_same} = {observed:.6f}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """The JSONL stream's closing ``stats`` line."""
        stats = self.stats
        f2 = check_feature_ii(stats)
        return canonical_json({
            **stats.to_json_dict(),
            "type": "stats",
            "feature_i_holds": check_feature_i(stats),
            "feature_ii_holds": f2.holds,
            "feature_ii_tolerance": f2.tolerance,
            "floor": str(CLASSICAL_FLOOR),
        })

    def to_csv(self) -> str:
        """Plot-ready CSV; a pair with no runs leaves fraction and radius blank."""
        lines = ["left,right,n,same_fraction,confidence_radius"]
        for pair in ALL_SETTING_PAIRS:
            a, b = self.stats.counts[pair]
            n = a + b
            frac, radius = (f"{a / n:.6f}", f"{hoeffding_radius(n):.6f}") if n else ("", "")
            lines.append(f"{int(pair.left)},{int(pair.right)},{n},{frac},{radius}")
        return "\n".join(lines)


_RENDERERS = {"text": "to_text", "jsonl": "to_json", "csv": "to_csv"}  # --format: report method


def _write_report(out, report, fmt: str) -> None:
    out.write(getattr(report, _RENDERERS[fmt])() + "\n")


def _run_source(args, config: RunConfig, seed: int, sink=None):
    """Stats of ``--n`` runs of ``--strategy``, the quantum oracle or a registry
    strategy; the registry is built only for the latter."""
    if args.strategy == QUANTUM_ORACLE_ID:
        return quantum_experiment(args.n, seed, config=config, sink=sink)
    strategy = _lookup_strategy(build_registry(config.payload_bytes), args.strategy)
    return run_experiment(config, strategy, args.n, seed, sink=sink)


def _cmd_run(args, out) -> None:
    seed = _resolve_seed(args)
    config = _config_from(args, censor_enabled=args.censor == "on")
    stats = _run_source(args, config, seed, out if args.format == "jsonl" else None)
    _write_report(out, _RunReport(args.strategy, stats), args.format)


def _cmd_prove_bound(args, out) -> None:
    try:
        report = prove_bound()
    except RuntimeError as defect:
        _fail(EXIT_DEFECT, "bound-defect", detail=str(defect))
    _write_report(out, report, args.format)


def _cmd_gap(args, out) -> None:
    seed = _resolve_seed(args)
    config = _config_from(args)
    classical = _run_source(args, config, seed)
    quantum = quantum_experiment(args.n, seed, config=config)
    report = bell_gap_report(classical, quantum)
    if args.format == "text":
        out.write(f"classical strategy: {args.strategy}\n")
    _write_report(out, report, args.format)
    if report.warning:
        out.flush()  # the report first: a write that fails exits 2 without the warning
        _fail(EXIT_OK, "power-warning", detail=report.warning)


def _cmd_verify_censor(args, out) -> None:
    seed = _resolve_seed(args)
    config = _config_from(args)
    registry = build_registry(config.payload_bytes)
    wanted = args.strategy
    if wanted not in ("all", QUANTUM_ORACLE_ID):
        _lookup_strategy(registry, wanted)
    if wanted == QUANTUM_ORACLE_ID:
        out.write(f"{QUANTUM_ORACLE_ID}: color source, no wings; skipped\n")

    failures = 0
    # a strategy's trial seeds follow from its registry position, so it is
    # checked on the same runs by name as in the sweep
    for index, (sid, strategy) in enumerate(registry.items()):
        if wanted not in ("all", sid):
            continue
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
            if wanted != "all":
                raise
            out.write(f"{sid}: {rejected}; skipped\n")
            continue
        except ExperimentAborted as aborted:
            # under 'all' a broken rule fails its strategy and the sweep goes
            # on; one asked for by name exits with the abort's line
            if wanted != "all":
                raise
            failures += 1
            out.write(f"{sid}: {aborted.kind.replace('-', ' ')}: {aborted}\n")
            continue
        if bad:
            failures += 1
            out.write(f"{sid}: FAILED {bad}/{args.n} counterfactual replays\n")
        else:
            out.write(f"{sid}: ok ({args.n} runs, transcripts setting-invariant)\n")
    if failures:
        out.flush()  # the lines first: a write that fails exits 2 without the count
        _fail(EXIT_VIOLATION, "noninterference-failure", strategies=failures)


def _cmd_list_strategies(args, out) -> None:
    for sid, strategy in build_registry().items():
        notes = []
        if strategy.agreement_based:
            notes.append("agreed-set")
        if strategy.requires_censor_off:
            notes.append("requires censor off")
        suffix = f"  ({', '.join(notes)})" if notes else ""
        out.write(f"{sid}{suffix}\n")
    out.write(f"{QUANTUM_ORACLE_ID}  (color source, no wings)\n")


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code, even if stdout or stderr
    refuses its bytes (they are dropped). The CLI's one I/O and error path:
    parse, open ``--output``, then run the command, which writes only there.
    An ExperimentAborted (a censor violation or a protocol error) exits 4 with
    its own line, a ValueError or OSError (a failed write, of ``--help`` or
    ``--version`` too) 2. ``main`` may be called any number of times in one
    process: the parser is built once; ``BELLGAME_SEED``, ``BELLGAME_OUTPUT``
    and ``COLUMNS`` are read at each call."""
    try:
        try:
            args = build_parser().parse_args(argv)
            with _open_output(args) as out:
                args.command_fn(args, out)
            return EXIT_OK
        except ExperimentAborted as aborted:
            _fail(EXIT_VIOLATION, aborted.kind, strategy=args.strategy, **aborted.to_json_dict())
        except (ValueError, OSError) as exc:
            _fail(EXIT_CONFIG, "config", detail=str(exc))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:  # a refused write stays buffered: drop it, or the flush at exit fails (exit 120)
                with contextlib.suppress(AttributeError, OSError), open(os.devnull, "w") as devnull:
                    os.dup2(devnull.fileno(), stream.fileno())  # a stand-in stream has no descriptor


if __name__ == "__main__":
    sys.exit(main())
