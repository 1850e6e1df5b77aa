"""Command-line pipeline: simulate, stream, record, analyze, compare, export.

Exit codes: 0 success, 1 usage error (UsageError), 2 data/processing error
(any other ValueError or OSError, the bases of every gripstream error). A flag
value that argparse converts (--sensor, --window-ms, --speed, --to, and
record's --listen, --user-id, --session, --connections, --timeout) is checked
by its rule as it is parsed, so a bad one exits 1 before any file is read or
socket bound; a simulate setting that session_spec rejects, from a flag or a
config file (--duration 0 included), exits 2. Diagnostics go to stderr; data
goes to stdout or the requested files. Each simulate setting comes from its
flag, else the --config file, else (seed only) GRIPSTREAM_SEED, else the
preset; compare's --seed falls back to GRIPSTREAM_SEED, then 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path

from . import ingest, profiling, simulator, stats
from .protocol import SensorId, check_endpoint
from .recording import Expertise, write_file

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


def _flag(rule):
    """An argparse ``type=`` that applies a library rule; its ValueError is a usage error."""
    def convert(text: str):
        try:
            return rule(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_sensor_flag = _flag(lambda text: SensorId.of(int(text)))


@_flag
def _endpoint_flag(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    try:
        return check_endpoint(host, int(port))
    except ValueError:  # int's own message does not name the HOST:PORT form
        raise ValueError(f"endpoint must be HOST:PORT with port 0..65535, got {text!r}") from None


@_flag
def _speed_flag(text: str) -> float:
    try:
        return simulator.check_speed(math.inf if text.lower() in ("max", "inf") else float(text))
    except ValueError:  # float's own message names neither form the flag takes
        raise ValueError(f"must be a positive number or 'max', got {text!r}") from None


# what a 255-byte file name leaves after record's longest suffix; far within the u16 of GFS1
_USER_ID_MAX_BYTES = 255 - len("_s10_right_99999.bin")


@_flag
def _user_id_flag(text: str) -> str:
    """A user id that can start a file name: no path separator, no NUL, not too long."""
    if any(sep in text for sep in {"/", os.sep, os.altsep or "/", "\0"}):
        raise ValueError(f"user id must hold no path separator or NUL, got {text!r}")
    size = len(text.encode("utf-8"))
    if size > _USER_ID_MAX_BYTES:
        raise ValueError(f"user id must be at most {_USER_ID_MAX_BYTES} UTF-8 bytes, got {size}")
    return text


def _session_spec(args) -> simulator.SessionSpec:
    if not (args.user or args.config):
        raise UsageError("one of --user or --config is required")
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
    recording = ingest.load_session(args.infile)
    report = simulator.stream_session(recording, args.to, speed=args.speed)
    print(f"sent {report.frames_sent} frames in {report.wall_time_s:.3f}s")
    return 0


def _cmd_record(args) -> int:
    recorder = ingest.SessionRecorder(
        *args.listen,
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
    recording = ingest.load_session(args.infile)
    series = profiling.sensor_series(recording, args.sensor)
    profile = profiling.window_profile(
        series,
        window_ms=args.window_ms,
        statistic=profiling.Statistic(args.stat),
        partial_policy=profiling.PartialPolicy(args.partial),
        sensor=args.sensor,
    )
    if args.out:
        profiling.profile_export(profile, args.out)
    else:
        sys.stdout.write(profiling.profile_csv(profile))
    print(
        f"{len(profile.windows)} windows of {args.window_ms} ms, sensor {args.sensor.index} "
        f"({args.sensor.label}), task time {profiling.task_time(recording)} s",
        file=sys.stderr,
    )
    return 0


def _cmd_compare(args) -> int:
    if args.reconstruct_paper:
        if args.cell:
            raise UsageError("--reconstruct-paper and --cell are mutually exclusive")
        seed = _resolve_seed(args.seed)
        table = stats.reconstruct_paper_cells(n_per_cell=args.n_per_cell, seed=seed).table
        factor_names = ("expertise", "session")
    else:
        if not args.cell:
            raise UsageError("provide --reconstruct-paper or at least four --cell entries")
        factor_names = tuple(args.factor_names.split(","))
        if len(factor_names) != 2 or not all(factor_names):
            raise UsageError(f"--factor-names must be NAME_A,NAME_B, got {args.factor_names!r}")
        cells = {}
        for entry in args.cell:
            try:
                levels, path = entry.split("=", 1)
                level_a, level_b = levels.split(":", 1)
            except ValueError:
                raise UsageError(f"--cell must be LEVELA:LEVELB=PATH, got {entry!r}") from None
            cells.setdefault((level_a, level_b), []).extend(  # a repeated cell pools
                profiling.sensor_series(ingest.load_session(path), args.sensor).values)
        table = stats.two_way_anova(cells, factor_names=factor_names)
    name_a, name_b = factor_names
    print(f"{'cell':<32}{'mean':>10}{'sem':>10}{'n':>8}")
    for (la, lb), summary in table.cells.items():
        label = f"{name_a}={la} {name_b}={lb}"
        print(f"{label:<32}{summary.mean:>10.2f}{summary.sem:>10.3f}{summary.n:>8}")
    print()
    print(table.to_text())
    if args.reconstruct_paper:
        inter = table.interaction
        print(f"\ninteraction: F({inter.df}, {table.error.df}) = "
              + (f"{inter.f:.2f}" if inter.f is not None else "n/a")
              + (f", p = {inter.p:.3g}" if inter.p is not None else ""))
        # with a pooled SEM s the closed form is F_1 / s^2, F_1 being its value at unit SEMs
        unit = {cell: (mean, 1.0) for cell, (mean, _) in stats.REFERENCE_CELLS.items()}
        pooled_sem = math.sqrt(stats.closed_form_interaction_f(unit) / 188.53)
        print(
            "note: the headline interaction F of 188.53 reported for this comparison\n"
            "cannot be rebuilt from cell means and SEMs alone; the closed-form\n"
            "expectation for this reconstruction is F = "
            f"{stats.closed_form_interaction_f(stats.REFERENCE_CELLS):.2f}. Reaching 188.53\n"
            f"would need a pooled SEM of {pooled_sem:.2f} mV. Degrees of freedom,\n"
            "significance, and the cell summaries are reproduced.",
            file=sys.stderr)
    if args.out:
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(table.csv_rows())
        write_file(args.out, text.getvalue())
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
    p.add_argument("--to", type=_endpoint_flag, required=True, help="receiver HOST:PORT")
    p.add_argument("--speed", type=_speed_flag, default="1.0",
                   help="pacing factor; 'max' = no pacing")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("record", help="receive glove streams and save recordings")
    p.add_argument("--listen", type=_endpoint_flag, default="127.0.0.1:0",
                   help="bind HOST:PORT (port 0 = ephemeral)")
    p.add_argument("--user-id", type=_user_id_flag, default="user",
                   help="starts each file name: no path separator or NUL")
    p.add_argument("--expertise", choices=[e.value for e in Expertise], required=True)
    p.add_argument("--session", type=_flag(lambda text: simulator.check_session(int(text))),
                   default="1", help="session index 1..10")
    p.add_argument("--connections", type=_flag(lambda text: ingest.check_connections(int(text))),
                   default="1", help="gloves expected")
    p.add_argument("--timeout", type=_flag(lambda text: ingest.check_timeout(float(text))),
                   help="overall deadline (s); what arrived is kept")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--format", choices=["binary", "csv"], default="binary")
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser("analyze", help="windowed per-sensor profile of a recording")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--sensor", type=_sensor_flag, default="7")
    p.add_argument("--window-ms", type=_flag(lambda text: profiling.check_window(int(text))),
                   default=str(profiling.DEFAULT_WINDOW_MS))
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
    p.add_argument("--sensor", type=_sensor_flag, default="7")
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
    except (ValueError, OSError) as exc:
        print(f"gripstream: {exc}", file=sys.stderr)
        return _DATA_EXIT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
