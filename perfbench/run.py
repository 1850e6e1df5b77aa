"""gripstream benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload capture|study|convert --seed N
                             --seconds S --trace 0|1

Run it from the root of a source checkout; it imports gripstream from
``src/`` and writes only under ``.perfbench_run/``. Set-up (synthesizing
and encoding or saving the inputs, and for capture starting the load
generator) is repeated and timed step by step; the timed phase runs in
a worker process; the outputs are then checked apart from the program.
The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# Set-up and the timed phase run on the first CPU, the load generator on the
# last: unpinned, the receiver's two threads and the generator migrate
# between CPUs and capture's figures spread twice as wide.
CPUS = sorted(os.sched_getaffinity(0))
# Set-up runs twice before the timed phase and three times after it, so
# that its repetitions fall at two moments half a minute apart rather than
# all within one of the host's slow spells.
SETUP_BEFORE, SETUP_AFTER = 2, 3
WORKER_SLACK_S = 100

END_TO_END_UNITS = {"setup_s": "s", "frames_per_s": "1/s", "session_ms_p50": "ms",
                    "session_ms_p90": "ms", "peak_rss_mb": "MB"}


def layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def pinned(cmd: list[str], cpu: int, **kwargs) -> subprocess.Popen:
    proc = subprocess.Popen(cmd, **kwargs)
    os.sched_setaffinity(proc.pid, {cpu})
    return proc


def start_generator(run_dir: Path) -> tuple[subprocess.Popen, int]:
    proc = pinned([sys.executable, str(HERE / "generator.py"), str(run_dir)], CPUS[-1],
                  stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    if line[:1] != ["ready"]:
        end(proc)
        raise RuntimeError("load generator did not start")
    return proc, int(line[1])


def end(proc: subprocess.Popen | None, grace_s: float = 0) -> None:
    """Give ``proc`` up to ``grace_s`` to exit, then kill it; wait until it has ended."""
    if proc is None:
        return
    try:
        proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout:
        proc.stdout.close()


def set_up(workload: str, seed: int, run_dir: Path, lap):
    """Make the workload's inputs; for capture, start the generator too."""
    import inputs

    if workload == "capture":
        expected = inputs.capture(seed, run_dir, lap)
        generator, port = start_generator(run_dir)
        lap("generator")
        return expected, generator, [str(port)]
    return inputs.recordings(seed, run_dir, lap), None, []


class SetupClock:
    """Times repeated set-ups step by step.

    The steps tile a set-up, so one set-up's steps add up to its time.
    ``seconds`` is the sum over steps of each step's median time, as
    ``frames_per_s`` sums each operation's median time.
    """

    def __init__(self):
        self.steps: dict = {}
        self.totals: list[float] = []
        self._last = 0.0

    def lap(self, step) -> None:
        now = time.perf_counter()
        self.steps.setdefault(step, []).append(now - self._last)
        self._last = now

    def set_up(self, workload: str, seed: int, run_dir: Path):
        start = self._last = time.perf_counter()
        made = set_up(workload, seed, run_dir, self.lap)
        self.totals.append(self._last - start)
        return made

    @property
    def seconds(self) -> float:
        return sum(map(statistics.median, self.steps.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("capture", "study", "convert"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gripstream" / "__init__.py").is_file():
        print("perfbench: run from the root of a gripstream checkout (no src/gripstream here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import layers
    from tracing import Tracer

    run_dir = ROOT / ".perfbench_run" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    os.sched_setaffinity(0, {CPUS[0]})
    generator = worker = None
    clock = SetupClock()
    setup_layers = None
    try:
        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            try:
                expected, generator, extra = clock.set_up(args.workload, args.seed, run_dir)
            finally:
                tracer.uninstall()
            setup_layers = layers.metrics(tracer)
        else:
            for _ in range(SETUP_BEFORE):
                end(generator)
                expected, generator, extra = clock.set_up(args.workload, args.seed, run_dir)
        worker = pinned([sys.executable, str(HERE / "worker.py"), args.workload, str(run_dir),
                         str(args.seconds), str(args.trace), *extra], CPUS[0])
        if worker.wait(timeout=args.seconds + WORKER_SLACK_S):
            raise RuntimeError(f"worker exited with code {worker.returncode}")
        end(generator, grace_s=10)
        # The same set-up again, in a directory of its own so that the checks
        # still read the files the worker used.
        again = run_dir / "setup-again"
        for _ in range(0 if args.trace else SETUP_AFTER):
            shutil.rmtree(again, ignore_errors=True)
            again.mkdir()
            _, generator, _ = clock.set_up(args.workload, args.seed, again)
            end(generator)
    finally:
        end(worker)
        end(generator)

    results = json.loads((run_dir / "worker.json").read_text())
    problems, attempted, failed, notes = checks.CHECKS[args.workload](expected, results, run_dir)
    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    e2e = results["end_to_end"]
    print(f"workload {args.workload}, seed {args.seed}: {results['rounds']} rounds, "
          f"{attempted} attempted, {failed} failed {notes}")
    if args.trace:
        units = layer_units()
        values = dict(results["layers"])
        for source in (setup_layers, results["sweep_layers"]):
            for name, value in source.items():
                if values.get(name) is None:
                    values[name] = value
        traced = results["traced_end_to_end"]
        values["trace.overhead_frames_per_s_pct"] = (
            (e2e["frames_per_s"] - traced["frames_per_s"]) / e2e["frames_per_s"] * 100)
        values["trace.overhead_session_ms_p50_pct"] = (
            (traced["session_ms_p50"] - e2e["session_ms_p50"]) / e2e["session_ms_p50"] * 100)
        print(f"untraced half {e2e}\ntraced half {traced}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        values = {"setup_s": clock.seconds, **e2e,
                  "peak_rss_mb": results["peak_rss_mb"]}
        print("set-up times (s): " + ", ".join(f"{t:.3f}" for t in clock.totals)
              + f"; median steps {clock.seconds:.3f}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
