"""Correctness checks, made apart from the program and outside the timed phase.

Nothing here imports gripstream. Frames and files are parsed from the
format descriptions with ``struct``, checksums come from
``binascii.crc_hqx`` (CRC-16/CCITT-FALSE with init 0xFFFF), CSV is read
with the ``csv`` module, and the ANOVA is recomputed from per-observation
sums of squares with p from ``scipy.stats.f.sf``.

Each check returns (problems, attempted, failed, notes); a non-empty
problem list fails the run.
"""

from __future__ import annotations

import binascii
import csv
import io
import math
import struct
from pathlib import Path

MAGIC, VERSION, FRAME = 0xA5, 0x01, 41
BODY = struct.Struct("<BBBIQ12H")
CRC = struct.Struct("<H")
FILE_MAGIC = b"GFS1"
FILE_FIXED = struct.Struct("<BBII")  # expertise, hand, session index, frame count
EXPERTISE_CODES = {"novice": 0, "trained": 1, "expert": 2}
HANDS = {"left": 0, "right": 1}
INTERVAL_MS, WINDOW_SAMPLES = 20, 100


def file_header(user: str, expertise: str, hand: str, session: int, count: int) -> bytes:
    raw = user.encode()
    return (FILE_MAGIC + struct.pack("<H", len(raw)) + raw
            + FILE_FIXED.pack(EXPERTISE_CODES[expertise], HANDS[hand], session, count))


def parse_frames(data: bytes) -> list[tuple]:
    """Unpack back-to-back frames, checking magic, version and CRC."""
    if len(data) % FRAME:
        raise ValueError(f"{len(data)} bytes is not a whole number of frames")
    frames = []
    for offset in range(0, len(data), FRAME):
        magic, version, hand, seq, ts, *amps = BODY.unpack_from(data, offset)
        (crc,) = CRC.unpack_from(data, offset + BODY.size)
        if magic != MAGIC or version != VERSION:
            raise ValueError(f"bad magic or version at byte {offset}")
        if crc != binascii.crc_hqx(data[offset:offset + BODY.size], 0xFFFF):
            raise ValueError(f"bad CRC at byte {offset}")
        frames.append((hand, seq, ts, tuple(amps)))
    return frames


def parse_file(blob: bytes) -> tuple[tuple, list[tuple]]:
    """((user, expertise code, hand, session, count), frames) of a binary recording."""
    if blob[:4] != FILE_MAGIC:
        raise ValueError("bad file magic")
    (size,) = struct.unpack_from("<H", blob, 4)
    user = blob[6:6 + size].decode()
    fixed = FILE_FIXED.unpack_from(blob, 6 + size)
    frames = parse_frames(blob[6 + size + FILE_FIXED.size:])
    if len(frames) != fixed[3]:
        raise ValueError("frame count differs from header")
    return (user, *fixed), frames


def capture(expected: dict, worker: dict, run_dir: Path):
    """Clean gloves: file == header + sent bytes. Noisy gloves: kept frames are
    a strictly increasing subsequence of those sent. Every intact frame is
    attempted; each one missing from its recording fails."""
    problems, attempted, failed, cut_lost = [], 0, 0, 0
    kept_by_key = worker["outputs"]
    for slot in expected["slots"]:
        for hand, glove in slot["gloves"].items():
            where = f"slot {slot['slot']} {hand}"
            wire, amplitudes = glove["wire"], glove["amplitudes"]
            try:
                sent = parse_frames(wire)
            except ValueError as exc:
                problems.append(f"{where}: sent bytes: {exc}")
                continue
            if sent != [(HANDS[hand], i, i * INTERVAL_MS, a) for i, a in enumerate(amplitudes)]:
                problems.append(f"{where}: sent frames differ from the synthesized session")
            intact = sorted(set(range(len(sent))) - set(glove["touched"]))
            outcomes = kept_by_key.get(f"{slot['slot']}:{hand}", [])
            rounds = 0
            for count, seqs in outcomes:
                rounds += count
                if any(b <= a for a, b in zip(seqs, seqs[1:])) or not set(seqs) <= set(intact):
                    problems.append(f"{where}: kept frames are not an increasing subset of "
                                    "the intact frames sent")
                lost = set(intact) - set(seqs)
                failed += count * len(lost)
                cut_lost += count * len(lost & {k + 1 for k in glove["cut"]})
            if rounds != worker["rounds"]:
                problems.append(f"{where}: recorded in {rounds} of {worker['rounds']} rounds")
                failed += (worker["rounds"] - rounds) * len(intact)
            attempted += worker["rounds"] * len(intact)
            blob = (run_dir / "capture" / f"{slot['slot']:03d}_{hand}.bin").read_bytes()
            if hand != slot["noisy"]:
                if blob != file_header(slot["user"], slot["expertise"], hand, slot["session"],
                                       len(sent)) + wire:
                    problems.append(f"{where}: saved file is not header + sent bytes")
                continue
            try:
                meta, saved = parse_file(blob)
            except ValueError as exc:
                problems.append(f"{where}: saved file: {exc}")
                continue
            if meta[:4] != (slot["user"], EXPERTISE_CODES[slot["expertise"]], HANDS[hand],
                            slot["session"]):
                problems.append(f"{where}: saved file header differs")
            if any(frame[1] >= len(sent) or frame != sent[frame[1]] for frame in saved) or any(
                    b[1] <= a[1] for a, b in zip(saved, saved[1:])):
                problems.append(f"{where}: saved frames are not a subsequence of those sent")
    return problems, attempted, failed, {"lost_after_cut_byte": cut_lost}


def _read_inputs(files: list[dict]) -> list[list[tuple]]:
    return [parse_file(Path(entry["path"]).read_bytes())[1] for entry in files]


def study(manifest: dict, worker: dict, run_dir: Path):
    """Complete-window means and peaks against a direct computation; each
    sensor's ANOVA against definitional sums of squares and scipy's F tail."""
    import numpy as np
    from scipy.stats import f as f_dist

    problems = []
    files = manifest["files"]
    recordings = _read_inputs(files)
    outputs = worker["outputs"]
    for entry, frames, made in zip(files, recordings, outputs["profiles"]):
        for sensor in range(12):
            samples = [frame[3][sensor] for frame in frames]
            windows = [samples[i:i + WINDOW_SAMPLES]
                       for i in range(0, len(samples) - WINDOW_SAMPLES + 1, WINDOW_SAMPLES)]
            for statistic, values, counts, text in made[2 * sensor:2 * sensor + 2]:
                want = [sum(w) / len(w) if statistic == "mean" else max(w) for w in windows]
                rows = list(csv.reader(io.StringIO(text)))
                if (values != want or counts != [WINDOW_SAMPLES] * len(want)
                        or rows[0] != ["window_index", "start_ms", "value_mv", "sample_count"]
                        or [(int(r[0]), int(r[1]), int(r[3])) for r in rows[1:]]
                        != [(i, i * WINDOW_SAMPLES * INTERVAL_MS, WINDOW_SAMPLES)
                            for i in range(len(want))]
                        or any(abs(float(r[2]) - v) > 0.005 + 1e-9 for r, v in zip(rows[1:], want))):
                    problems.append(f"{entry['path']} s{sensor + 1} {statistic}: profile differs")
    a = np.array([entry["expertise"] == "expert" for entry in files for _ in range(entry["frames"])])
    b = np.array([entry["session"] == "last" for entry in files for _ in range(entry["frames"])])
    for sensor, result in enumerate(outputs["anova"]):
        y = np.array([frame[3][sensor] for frames in recordings for frame in frames], dtype=float)
        g = y.mean()
        row = {v: y[a == v].mean() for v in (False, True)}
        col = {v: y[b == v].mean() for v in (False, True)}
        cell = {(i, j): y[(a == i) & (b == j)].mean() for i in (False, True) for j in (False, True)}
        r_i, c_j = np.where(a, row[True], row[False]), np.where(b, col[True], col[False])
        m_ij = np.select([a & b, a & ~b, ~a & b], [cell[(True, True)], cell[(True, False)],
                                                     cell[(False, True)]], cell[(False, False)])
        ss = [((r_i - g) ** 2).sum(), ((c_j - g) ** 2).sum(),
              ((m_ij - r_i - c_j + g) ** 2).sum(), ((y - m_ij) ** 2).sum()]
        df_err = len(y) - 4
        for (name, got_ss, df, ms, f, p), want_ss in zip(result["rows"], ss):
            want_df = df_err if name == "error" else 1
            if df != want_df or not math.isclose(got_ss, want_ss, rel_tol=1e-9,
                                                 abs_tol=1e-12 * sum(ss)):
                problems.append(f"s{sensor + 1} {name}: ss/df {got_ss}/{df} != {want_ss}/{want_df}")
            if name == "error":
                continue
            want_f = want_ss / ss[3] * df_err
            want_p = f_dist.sf(want_f, 1, df_err)
            if not (math.isclose(f, want_f, rel_tol=1e-6, abs_tol=1e-9)
                    and math.isclose(p, want_p, rel_tol=1e-6, abs_tol=1e-300)):
                problems.append(f"s{sensor + 1} {name}: F, p {f}, {p} != {want_f}, {want_p}")
        for expertise, session, mean, sem, n in result["cells"]:
            values = y[(a == (expertise == "expert")) & (b == (session == "last"))]
            want_sem = values.std(ddof=1) / math.sqrt(len(values))
            if (n != len(values) or not math.isclose(mean, values.mean(), rel_tol=1e-12)
                    or not math.isclose(sem, want_sem, rel_tol=1e-9)):
                problems.append(f"s{sensor + 1} cell {expertise}/{session}: summary differs")
    attempted = worker["rounds"] * (len(files) + len(outputs["anova"]))
    return problems, attempted, 0, {}


def convert(manifest: dict, worker: dict, run_dir: Path):
    """The final binary equals its source byte for byte; the CSV holds the source frames."""
    problems = []
    header = ["user_id", "expertise", "session_index", "hand", "seq", "timestamp_ms",
              *(f"s{i}" for i in range(1, 13))]
    for i, (entry, frames) in enumerate(zip(manifest["files"], _read_inputs(manifest["files"]))):
        source = Path(entry["path"]).read_bytes()
        if (run_dir / "convert" / f"{i:03d}.bin").read_bytes() != source:
            problems.append(f"{entry['path']}: converted binary differs from its source")
        with open(run_dir / "convert" / f"{i:03d}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        meta = [entry["user"], entry["expertise"], str(entry["session_index"]), entry["hand"]]
        want = [header] + [meta + [str(v) for v in (seq, ts, *amps)]
                           for _, seq, ts, amps in frames]
        if rows != want:
            problems.append(f"{entry['path']}: CSV differs from the source frames")
    return problems, worker["rounds"] * len(manifest["files"]), 0, {}


CHECKS = {"capture": capture, "study": study, "convert": convert}
