"""Command-line pipeline: simulate, stream, record, analyze, compare, export.

Exit codes: 0 success, 1 usage error, 2 data/processing error. Diagnostics
go to stderr; data goes to stdout or the requested files. Each simulate setting
comes from its flag, else the --config file, else (seed only) GRIPSTREAM_SEED,
else the preset; compare's --seed falls back to GRIPSTREAM_SEED, then 0.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

from . import ingest, profiling, simulator, stats
from .protocol import SENSOR_COUNT, SensorId
from .recording import Expertise, IoFailure

SEED_ENV_VAR = "GRIPSTREAM_SEED"

_USAGE_EXIT = 1
_DATA_EXIT = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return 0


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise UsageError(f"endpoint must be HOST:PORT, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise UsageError(f"endpoint port must be an integer, got {port!r}") from None


def _check_sensor(index: int) -> SensorId:
    if not 1 <= index <= SENSOR_COUNT:
        raise UsageError(f"--sensor must be in 1..{SENSOR_COUNT}, got {index}")
    return SensorId.of(index)


def _check_window(window_ms: int) -> int:
    if window_ms <= 0 or window_ms % 20 != 0:
        raise UsageError(f"--window-ms must be a positive multiple of 20 ms, got {window_ms}")
    return window_ms


def _session_spec(args) -> simulator.SessionSpec:
    if not (args.user or args.config):
        raise UsageError("one of --user or --config is required")
    if args.duration is not None and args.duration <= 0:
        raise UsageError("--duration must be positive")
    flags = {"user": args.user_id, "expertise": args.user, "hand": args.hand,
             "duration": args.duration, "session": args.session, "seed": args.seed}
    layers = [(None, {key: value for key, value in flags.items() if value is not None})]
    if args.config:
        layers.append((args.config, simulator.read_config(args.config)))
    if not any("seed" in values for _, values in layers):
        layers.append((None, {"seed": _resolve_seed(None)}))
    return simulator.session_spec(layers)


def _cmd_simulate(args) -> int:
    spec = _session_spec(args)
    recording = simulator.synthesize_session(spec)
    ingest.save_session(recording, args.out, format=args.format)
    print(
        f"wrote {len(recording)} frames "
        f"({spec.user.expertise.value}, {recording.hand.name.lower()} hand, "
        f"session {spec.session_index}, seed {spec.seed}) to {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_stream(args) -> int:
    endpoint = _parse_endpoint(args.to)
    if args.speed.lower() in ("max", "inf"):
        speed = math.inf
    else:
        try:
            speed = float(args.speed)
        except ValueError:
            raise UsageError(f"--speed must be a number or 'max', got {args.speed!r}") from None
    if not speed > 0:
        raise UsageError(f"--speed must be positive, got {args.speed}")
    recording = ingest.load_session(args.infile)
    report = simulator.stream_session(recording, endpoint, speed=speed)
    print(f"sent {report.frames_sent} frames in {report.wall_time_s:.3f}s")
    return 0


def _cmd_record(args) -> int:
    host, port = _parse_endpoint(args.listen)
    recorder = ingest.SessionRecorder(
        host,
        port,
        user_id=args.user_id,
        expertise=Expertise(args.expertise),
        session_index=args.session,
        connections=args.connections,
        timeout=args.timeout,
    )
    bound_host, bound_port = recorder.address
    print(f"listening on {bound_host}:{bound_port}", file=sys.stderr, flush=True)
    recordings = recorder.run()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = ".csv" if args.format == "csv" else ".bin"
    used: set[str] = set()
    for recording in recordings:
        stem = f"{recording.user_id}_s{recording.session_index}_{recording.hand.name.lower()}"
        name = stem + ext
        ordinal = 1
        while name in used or (out_dir / name).exists():
            ordinal += 1
            name = f"{stem}_{ordinal}{ext}"
        used.add(name)
        path = out_dir / name
        ingest.save_session(recording, path, format=args.format)
        print(path)
        if recording.decode_errors or recording.dropped_frames:
            print(
                f"{name}: {recording.decode_errors} decode errors, "
                f"{recording.dropped_frames} dropped frames",
                file=sys.stderr,
            )
    return 0


def _cmd_analyze(args) -> int:
    sensor = _check_sensor(args.sensor)
    window_ms = _check_window(args.window_ms)
    recording = ingest.load_session(args.infile)
    series = profiling.sensor_series(recording, sensor)
    profile = profiling.window_profile(
        series,
        window_ms=window_ms,
        statistic=profiling.Statistic(args.stat),
        partial_policy=profiling.PartialPolicy(args.partial),
        sensor=sensor,
    )
    text = profiling.profile_csv(profile)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise IoFailure(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    print(
        f"{len(profile.windows)} windows of {window_ms} ms, sensor {sensor.index} "
        f"({sensor.label}), task time {profiling.task_time(recording)} s",
        file=sys.stderr,
    )
    return 0


def _print_cells(cells: dict[tuple[str, str], stats.CellSummary], factor_names) -> None:
    name_a, name_b = factor_names
    print(f"{'cell':<32}{'mean':>10}{'sem':>10}{'n':>8}")
    for (la, lb), summary in cells.items():
        label = f"{name_a}={la} {name_b}={lb}"
        print(f"{label:<32}{summary.mean:>10.2f}{summary.sem:>10.3f}{summary.n:>8}")


def _write_table_csv(table: stats.AnovaTable, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table.csv_rows())
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _cmd_compare(args) -> int:
    if args.reconstruct_paper:
        if args.cell:
            raise UsageError("--reconstruct-paper and --cell are mutually exclusive")
        result = stats.reconstruct_paper_cells(
            n_per_cell=args.n_per_cell, seed=_resolve_seed(args.seed)
        )
        _print_cells(result.cells, ("expertise", "session"))
        print()
        print(result.table.to_text())
        inter = result.table.interaction
        print(
            f"\ninteraction: F({inter.df}, {result.table.error.df}) = "
            + (f"{inter.f:.2f}" if inter.f is not None else "n/a")
            + (f", p = {inter.p:.3g}" if inter.p is not None else ""),
        )
        print(
            "note: the headline interaction F of 188.53 reported for this comparison\n"
            "cannot be rebuilt from cell means and SEMs alone; the closed-form\n"
            "expectation for this reconstruction is F ~= 101. Degrees of freedom,\n"
            "significance, and the cell summaries are reproduced.",
            file=sys.stderr,
        )
        if args.out:
            _write_table_csv(result.table, args.out)
        return 0

    if not args.cell:
        raise UsageError("provide --reconstruct-paper or at least four --cell entries")
    sensor = _check_sensor(args.sensor)
    parts = args.factor_names.split(",")
    if len(parts) != 2 or not all(parts):
        raise UsageError(f"--factor-names must be NAME_A,NAME_B, got {args.factor_names!r}")
    name_a, name_b = parts
    pooled: dict[tuple[str, str], list[int]] = {}
    for entry in args.cell:
        try:
            levels, path = entry.split("=", 1)
            level_a, level_b = levels.split(":", 1)
        except ValueError:
            raise UsageError(f"--cell must be LEVELA:LEVELB=PATH, got {entry!r}") from None
        recording = ingest.load_session(path)
        pooled.setdefault((level_a, level_b), []).extend(
            amp for _, amp in profiling.sensor_series(recording, sensor)
        )
    cells = {cell: stats.mean_sem(values) for cell, values in pooled.items()}
    observations = [(la, lb, v) for (la, lb), values in pooled.items() for v in values]
    table = stats.two_way_anova(observations, factor_names=(name_a, name_b))
    _print_cells(cells, (name_a, name_b))
    print()
    print(table.to_text())
    if args.out:
        _write_table_csv(table, args.out)
    return 0


def _cmd_export(args) -> int:
    recording = ingest.load_session(args.infile)
    ingest.save_session(recording, args.out, format=args.format)
    print(f"wrote {len(recording)} frames to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gripstream", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a session and save it")
    p.add_argument("--user", choices=[e.value for e in Expertise], help="expertise preset")
    p.add_argument("--user-id", help="recording user id (default: preset name)")
    p.add_argument("--hand", help="left|right|dominant|nondominant")
    p.add_argument("--duration", type=float, help="session length in seconds")
    p.add_argument("--session", type=int, help="session index 1..10")
    p.add_argument("--seed", type=int, help=f"RNG seed (fallback: config, ${SEED_ENV_VAR}, 0)")
    p.add_argument("--config", help="session spec file (key = value lines); flags win over it")
    p.add_argument("--out", required=True, help="output recording path")
    p.add_argument("--format", choices=["binary", "csv"], help="default: by extension")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stream", help="replay a saved recording to a socket")
    p.add_argument("--in", dest="infile", required=True, help="recording to send")
    p.add_argument("--to", required=True, help="receiver HOST:PORT")
    p.add_argument("--speed", default="1.0", help="pacing factor; 'max' = no pacing")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("record", help="receive glove streams and save recordings")
    p.add_argument("--listen", default="127.0.0.1:0", help="bind HOST:PORT (port 0 = ephemeral)")
    p.add_argument("--user-id", default="user")
    p.add_argument("--expertise", choices=[e.value for e in Expertise], required=True)
    p.add_argument("--session", type=int, default=1)
    p.add_argument("--connections", type=int, default=1, help="gloves expected")
    p.add_argument("--timeout", type=float, help="overall deadline (s); what arrived is kept")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--format", choices=["binary", "csv"], default="binary")
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser("analyze", help="windowed per-sensor profile of a recording")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--sensor", type=int, default=7)
    p.add_argument("--window-ms", type=int, default=profiling.DEFAULT_WINDOW_MS)
    p.add_argument("--stat", choices=[s.value for s in profiling.Statistic], default="mean")
    p.add_argument(
        "--partial", choices=[p.value for p in profiling.PartialPolicy], default="drop",
        help="trailing-window policy",
    )
    p.add_argument("--out", help="profile CSV path (default: stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("compare", help="cell summaries and two-way ANOVA")
    p.add_argument(
        "--reconstruct-paper", action="store_true",
        help="resynthesize the four reference S7 cells and test expertise x session",
    )
    p.add_argument("--n-per-cell", type=int, default=simulator.DEFAULT_CELL_N)
    p.add_argument("--seed", type=int, help=f"RNG seed (fallback: ${SEED_ENV_VAR}, then 0)")
    p.add_argument(
        "--cell", action="append", default=[], metavar="LEVELA:LEVELB=PATH",
        help="recording file for one factor-level combination (repeat)",
    )
    p.add_argument("--sensor", type=int, default=7)
    p.add_argument("--factor-names", default="A,B")
    p.add_argument("--out", help="ANOVA table CSV path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("export", help="convert a recording between binary and csv")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["binary", "csv"], help="default: by --out extension")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _USAGE_EXIT
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"gripstream: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (ValueError, OSError, stats.ConvergenceError) as exc:
        print(f"gripstream: {exc}", file=sys.stderr)
        return _DATA_EXIT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
