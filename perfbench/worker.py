"""The timed phase, run in a process of its own so its peak RSS is its own.

Run as ``python3 worker.py WORKLOAD RUN_DIR SECONDS TRACE [CONTROL_PORT]``
from the checkout root. It repeats whole rounds of the workload's
operations until the next round would pass SECONDS, takes each
operation's median time over the rounds, and writes ``worker.json``:
end-to-end figures, the outputs of the last round for the checks, and,
when TRACE is 1, per-layer figures. A traced run measures the first half
of SECONDS untraced and the second half traced; the difference between
the two halves is the tracing overhead.
"""

from __future__ import annotations

import json
import random
import resource
import socket
import statistics
import sys
import threading
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from gripstream import ingest, profiling, protocol, stats  # noqa: E402

import generator  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

WINDOW_MS = profiling.DEFAULT_WINDOW_MS
STATISTICS = (profiling.Statistic.MEAN, profiling.Statistic.PEAK)
RECEIVE_TIMEOUT_S = 30.0


class Timing:
    """Every time of each operation over the rounds of one phase.

    An operation's figure is its median over the rounds. The vCPU's speed
    moves from one millisecond to the next, so the fastest of a run's 6-40
    repetitions of a 3-40 ms operation depends on how lucky that one was:
    over runs its spread was 1.4-6 times that of the median (README.md).
    """

    def __init__(self):
        self.times: dict[tuple[str, int], list[float]] = {}
        self.rounds = 0

    def record(self, op: tuple[str, int], seconds: float) -> None:
        self.times.setdefault(op, []).append(seconds)

    def end_to_end(self, frames_per_round: int) -> dict[str, float]:
        typical = {op: statistics.median(times) for op, times in self.times.items()}
        sessions = [s for (kind, _), s in typical.items() if kind == "session"]
        return {
            "frames_per_s": frames_per_round / sum(typical.values()),
            "session_ms_p50": statistics.median(sessions) * 1e3,
            "session_ms_p90": statistics.quantiles(sessions, n=10)[-1] * 1e3,
        }


class Workload:
    """One workload's inputs and the operations of one round."""

    frames_per_round = 0

    def round(self, timing: Timing) -> None:
        raise NotImplementedError

    def outputs(self) -> dict:
        """What the checks need from the last round."""
        return {}

    def close(self) -> None:
        pass


class Capture(Workload):
    """Receive 100 bimanual sessions over loopback and save each recording in binary."""

    def __init__(self, run_dir: Path, control_port: int):
        self.slots = json.loads((run_dir / "capture.json").read_text())
        self.frames_per_round = sum(slot["frames"] for slot in self.slots)
        self.out_dir = run_dir / "capture"
        self.out_dir.mkdir(exist_ok=True)
        self.control = socket.create_connection(("127.0.0.1", control_port),
                                                timeout=RECEIVE_TIMEOUT_S)
        self.replies = self.control.makefile("r")
        self.kept: dict[str, dict[bytes, int]] = {}  # "slot:hand" -> {kept seqs: rounds}

    def round(self, timing: Timing) -> None:
        for slot in self.slots:
            recorder = ingest.SessionRecorder(
                user_id=slot["user"], expertise=slot["expertise"], session_index=slot["session"],
                connections=2, timeout=RECEIVE_TIMEOUT_S)
            # The clock starts with the request: the generator connects both
            # gloves and sends while the receiver accepts and reads.
            start = time.perf_counter()
            self.control.sendall(f"{slot['slot']} {recorder.address[1]}\n".encode())
            received = recorder.run()
            for recording in received:
                name = f"{slot['slot']:03d}_{recording.hand.name.lower()}.bin"
                ingest.save_session(recording, self.out_dir / name, format="binary")
            timing.record(("session", slot["slot"]), time.perf_counter() - start)
            if self.replies.readline() != "sent\n":
                raise RuntimeError("load generator stopped")
            for recording in received:
                seqs = array("I", [frame.seq for frame in recording.frames]).tobytes()
                seen = self.kept.setdefault(f"{slot['slot']}:{recording.hand.name.lower()}", {})
                seen[seqs] = seen.get(seqs, 0) + 1

    def outputs(self) -> dict:
        return {key: [[count, list(array("I", seqs))] for seqs, count in seen.items()]
                for key, seen in self.kept.items()}

    def close(self) -> None:
        self.replies.close()
        self.control.close()


class Study(Workload):
    """Profile every recording on all 12 sensors, then one ANOVA per sensor."""

    def __init__(self, run_dir: Path):
        self.files = json.loads((run_dir / "recordings.json").read_text())["files"]
        self.frames_per_round = sum(entry["frames"] for entry in self.files)
        self.last = None

    def round(self, timing: Timing) -> None:
        loaded, profiles = [], []
        for i, entry in enumerate(self.files):
            start = time.perf_counter()
            recording = ingest.load_session(entry["path"])
            made = []
            for sensor in protocol.SENSORS:
                series = profiling.sensor_series(recording, sensor)
                for statistic in STATISTICS:
                    profile = profiling.window_profile(series, WINDOW_MS, statistic, sensor=sensor)
                    made.append((profile, profiling.profile_csv(profile)))
            timing.record(("session", i), time.perf_counter() - start)
            loaded.append(recording)
            profiles.append(made)
        tables = []
        for sensor in protocol.SENSORS:
            start = time.perf_counter()
            observations, cells = [], {}
            for entry, recording in zip(self.files, loaded):
                values = [amp for _, amp in profiling.sensor_series(recording, sensor)]
                cell = (entry["expertise"], entry["session"])
                cells.setdefault(cell, []).extend(values)
                observations.extend((cell[0], cell[1], v) for v in values)
            summaries = {cell: stats.mean_sem(values) for cell, values in cells.items()}
            table = stats.two_way_anova(observations, factor_names=("expertise", "session"))
            timing.record(("anova", sensor.index), time.perf_counter() - start)
            tables.append((summaries, table))
        self.last = (profiles, tables)

    def outputs(self) -> dict:
        profiles, tables = self.last
        return {
            "profiles": [[[p.statistic.value, p.values(), [w.sample_count for w in p.windows],
                           text] for p, text in made] for made in profiles],
            "anova": [{"cells": [[*cell, s.mean, s.sem, s.n] for cell, s in summaries.items()],
                       "rows": [[r.name, r.ss, r.df, r.ms, r.f, r.p] for r in table.rows()]}
                      for summaries, table in tables],
        }


class Convert(Workload):
    """Convert every recording binary -> CSV -> binary, as ``gripstream export`` does."""

    def __init__(self, run_dir: Path):
        self.files = json.loads((run_dir / "recordings.json").read_text())["files"]
        self.frames_per_round = sum(entry["frames"] for entry in self.files)
        self.out_dir = run_dir / "convert"
        self.out_dir.mkdir(exist_ok=True)

    def round(self, timing: Timing) -> None:
        for i, entry in enumerate(self.files):
            csv_path = self.out_dir / f"{i:03d}.csv"
            start = time.perf_counter()
            ingest.save_session(ingest.load_session(entry["path"]), csv_path)
            ingest.save_session(ingest.load_session(csv_path), self.out_dir / f"{i:03d}.bin")
            timing.record(("session", i), time.perf_counter() - start)


def run_rounds(workload: Workload, seconds: float) -> Timing:
    """Whole rounds until the next one would end after ``seconds``; at least one."""
    timing = Timing()
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        workload.round(timing)
        timing.rounds += 1
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return timing


def sweep(path: Path, run_dir: Path) -> dict:
    """One small pass through every layer, traced on its own.

    It gives a figure to the layers that a workload's traced rounds and
    set-up never call: a loopback capture of one clean and one damaged
    copy of ``path`` (sent from a thread of this process), binary and CSV
    save and load, the 12-sensor profiles and a 2 x 2 ANOVA.
    """
    tracer = Tracer()
    layers.install(tracer)
    try:
        recording = ingest.load_session(path)
        wire = b"".join(map(protocol.encode_frame, recording.frames))
        noisy, _, _ = inputs.damage(wire, random.Random(inputs.DAMAGE_SEED))
        recorder = ingest.SessionRecorder(
            user_id=recording.user_id, expertise=recording.expertise,
            session_index=recording.session_index, connections=2, timeout=RECEIVE_TIMEOUT_S)
        sender = threading.Thread(target=generator.send_session,
                                  args=(recorder.address[1], (wire, noisy)))
        sender.start()
        try:
            received = recorder.run()
        finally:
            sender.join()
        ingest.save_session(received[0], run_dir / "sweep.bin", format="binary")
        ingest.save_session(recording, run_dir / "sweep.csv")
        ingest.load_session(run_dir / "sweep.csv")
        for sensor in protocol.SENSORS:
            series = profiling.sensor_series(recording, sensor)
            for statistic in STATISTICS:
                profiling.profile_csv(profiling.window_profile(series, WINDOW_MS, statistic))
        values = [amp for _, amp in profiling.sensor_series(recording, 7)]
        quarter = len(values) // 4
        observations = [(i // 2, i % 2, v) for i in range(4)
                        for v in values[i * quarter:(i + 1) * quarter]]
        stats.mean_sem(values)
        stats.two_way_anova(observations)
    finally:
        tracer.uninstall()
    return layers.metrics(tracer)


def main(argv: list[str]) -> int:
    name, run_dir, seconds, trace = argv[0], Path(argv[1]), float(argv[2]), argv[3] == "1"
    if name == "capture":
        workload = Capture(run_dir, int(argv[4]))
    else:
        workload = (Study if name == "study" else Convert)(run_dir)
    result: dict = {}
    try:
        timing = run_rounds(workload, seconds / 2 if trace else seconds)
        result["rounds"] = timing.rounds
        result["end_to_end"] = timing.end_to_end(workload.frames_per_round)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = run_rounds(workload, seconds / 2)
            finally:
                tracer.uninstall()
            result["rounds"] += traced.rounds
            result["traced_end_to_end"] = traced.end_to_end(workload.frames_per_round)
            result["layers"] = layers.metrics(tracer)
            tracer.write(run_dir / "spans.bin")
    finally:
        workload.close()
    result["outputs"] = workload.outputs()
    if trace:
        sample = min((run_dir / ("capture" if name == "capture" else "inputs")).glob("*.bin"))
        result["sweep_layers"] = sweep(sample, run_dir)
        result["layers"]["recording.bytes_per_frame"] = layers.bytes_per_frame(sample)
    (run_dir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
