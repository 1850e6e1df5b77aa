"""Independent reference implementations the tests check the package against.

Nothing here may import from gripstream's numeric internals: the CRC is
bitwise (the package's is ``binascii.crc_hqx``), the ANOVA is the
per-observation definitional computation (the package uses balanced
marginal-mean formulas), p-values come from scipy, the F upper tail is
evaluated by arbitrary-precision numerical integration of the density (the
package uses a continued fraction, whose two Lentz steps per term are also
kept here written out one after the other), session synthesis calls
``random.gauss`` once per sample (the package inlines the Gaussian pairs),
the balanced ANOVA, the cell summaries and the window profiles loop
over samples in Python (the package runs those sums in C iterators), and
the file loaders and writers and the stream decoder handle one frame or
row at a time (the package decodes and checks whole columns and formats
or splits the CSV text in one pass).
"""

from __future__ import annotations

import math
import random

import mpmath


def crc16_bitwise(data: bytes) -> int:
    """CRC-16/CCITT-FALSE, plain bit-at-a-time evaluation."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


def with_octet(wire: bytes, index: int, value: int) -> bytes:
    """A 41-octet wire frame with octet ``index`` < 39 set and the CRC recomputed bitwise."""
    body = bytearray(wire[:39])
    body[index] = value
    crc = crc16_bitwise(body)
    return bytes(body) + bytes((crc & 0xFF, crc >> 8))


def with_hand_byte(wire: bytes, hand: int) -> bytes:
    """A 41-octet wire frame with octet 2 (hand) set and the CRC recomputed bitwise."""
    return with_octet(wire, 2, hand)


def brute_force_anova(observations):
    """Definitional two-way sums of squares, one term per observation.

    Returns a dict with ss/df/f per effect plus scipy-based p-values.
    Assumes a balanced full-factorial design (the caller guarantees it).
    """
    from scipy.stats import f as f_dist

    rows = [(a, b, float(v)) for a, b, v in observations]
    levels_a = sorted({a for a, _, _ in rows}, key=str)
    levels_b = sorted({b for _, b, _ in rows}, key=str)
    grand = math.fsum(v for _, _, v in rows) / len(rows)

    def mean_where(pred):
        vals = [v for a, b, v in rows if pred(a, b)]
        return math.fsum(vals) / len(vals)

    mean_a = {a: mean_where(lambda x, y, a=a: x == a) for a in levels_a}
    mean_b = {b: mean_where(lambda x, y, b=b: y == b) for b in levels_b}
    mean_cell = {
        (a, b): mean_where(lambda x, y, a=a, b=b: x == a and y == b)
        for a in levels_a
        for b in levels_b
    }

    ss_a = math.fsum((mean_a[a] - grand) ** 2 for a, b, v in rows)
    ss_b = math.fsum((mean_b[b] - grand) ** 2 for a, b, v in rows)
    ss_ab = math.fsum(
        (mean_cell[(a, b)] - mean_a[a] - mean_b[b] + grand) ** 2 for a, b, v in rows
    )
    ss_err = math.fsum((v - mean_cell[(a, b)]) ** 2 for a, b, v in rows)

    na, nb = len(levels_a), len(levels_b)
    df = {
        "a": na - 1,
        "b": nb - 1,
        "ab": (na - 1) * (nb - 1),
        "err": len(rows) - na * nb,
    }
    ms_err = ss_err / df["err"]
    out = {
        "ss": {"a": ss_a, "b": ss_b, "ab": ss_ab, "err": ss_err},
        "df": df,
        "f": {},
        "p": {},
    }
    for effect, ss in (("a", ss_a), ("b", ss_b), ("ab", ss_ab)):
        if ms_err == 0.0:
            out["f"][effect] = None
            out["p"][effect] = None
            continue
        f_stat = (ss / df[effect]) / ms_err
        out["f"][effect] = f_stat
        out["p"][effect] = float(f_dist.sf(f_stat, df[effect], df["err"]))
    return out


def f_upper_tail_quad(f_stat: float, df1: int, df2: int, dps: int = 30) -> float:
    """P(F > f) by numerical integration of the F density."""
    with mpmath.workdps(dps):
        d1, d2 = mpmath.mpf(df1), mpmath.mpf(df2)

        def pdf(x):
            num = (d1 * x) ** d1 * d2 ** d2 / (d1 * x + d2) ** (d1 + d2)
            return mpmath.sqrt(num) / (x * mpmath.beta(d1 / 2, d2 / 2))

        if f_stat == 0:
            return 1.0
        return float(mpmath.quad(pdf, [f_stat, mpmath.inf]))


def betacf_reference(a: float, b: float, x: float) -> float:
    """``stats._betacf`` with the even and the odd modified-Lentz step written out in turn."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ValueError(f"betacf(a={a}, b={b}, x={x}) did not converge")


def random_frame(rng: random.Random):
    """A structurally valid random GloveFrame (imports locally to stay thin)."""
    from gripstream.protocol import GloveFrame, Hand

    return GloveFrame(
        hand=rng.choice((Hand.LEFT, Hand.RIGHT)),
        seq=rng.randrange(0, 2**32),
        timestamp_ms=rng.randrange(0, 2**64),
        amplitudes=tuple(rng.randrange(0, 65536) for _ in range(12)),
    )


def random_recording(rng: random.Random, max_frames: int = 40):
    """A random but invariant-respecting SessionRecording."""
    from gripstream.protocol import GloveFrame, Hand
    from gripstream.recording import Expertise, SessionRecording

    hand = rng.choice((Hand.LEFT, Hand.RIGHT))
    count = rng.randrange(1, max_frames + 1)
    seq = rng.randrange(0, 1000)
    t = rng.randrange(0, 10_000)
    frames = []
    for _ in range(count):
        frames.append(
            GloveFrame(hand, seq, t, tuple(rng.randrange(0, 65536) for _ in range(12)))
        )
        seq += rng.randrange(1, 4)  # occasional seq holes are legal
        t += 20 * rng.randrange(1, 4)
    return SessionRecording(
        user_id=rng.choice(("ana", "режим", "u-7", "bob,smith", "x")),
        expertise=rng.choice(tuple(Expertise)),
        session_index=rng.randrange(1, 11),
        hand=hand,
        frames=frames,
    )


class OutOfRange(ValueError):
    """Timestamp outside the session duration."""


# the task's four step shares, kept apart from the package's own constant
STEP_FRACTIONS = (0.30, 0.25, 0.30, 0.15)


def phase_of(t_ms: int, duration_ms: int, fractions=STEP_FRACTIONS) -> int:
    """Task step (1..4) active at ``t_ms``. Step boundaries belong to the later step."""
    if not 0 <= t_ms < duration_ms:
        raise OutOfRange(f"t_ms={t_ms} outside session of {duration_ms} ms")
    ratio, end = t_ms / duration_ms, 0.0
    for step, fraction in enumerate(fractions[:-1], start=1):
        end += fraction
        if ratio < end:
            return step
    return len(fractions)


def synthesize_reference(spec):
    """The per-sample synthesis loop: one ``rng.gauss`` and one ``model_for`` per sample.

    The package inlines the Gaussian pairs and builds frames unchecked; this
    keeps the plain loop, with ``phase_of`` per frame and the checked
    ``GloveFrame`` constructor, to compare it against.
    """
    from gripstream.protocol import AMPLITUDE_MAX, NOMINAL_INTERVAL_MS, SENSOR_COUNT, GloveFrame
    from gripstream.recording import SessionRecording
    from gripstream.simulator import frame_count_for

    count = frame_count_for(spec.duration_s)
    duration_ms = count * NOMINAL_INTERVAL_MS
    rng = random.Random(spec.seed)
    frames = []
    for i in range(count):
        t_ms = i * NOMINAL_INTERVAL_MS
        step = phase_of(t_ms, duration_ms)
        amps = []
        for sensor in range(1, SENSOR_COUNT + 1):
            mean, sd = spec.user.model_for(sensor, step)
            amps.append(min(AMPLITUDE_MAX, max(0, round(rng.gauss(mean, sd)))))
        frames.append(GloveFrame(spec.hand, i, t_ms, tuple(amps)))
    return SessionRecording(
        user_id=spec.user.user_id,
        expertise=spec.user.expertise,
        session_index=spec.session_index,
        hand=spec.hand,
        frames=frames,
    )


# The per-sample statistics loops, as they stood before the package moved
# them onto C iterators: a list-membership test per observation, a
# ``(v - m) ** 2`` generator and a dict ``setdefault`` per sample. The
# package must give results whose every float has the same ``repr``.


def two_way_anova_reference(observations, factor_names=("A", "B")):
    """``stats.two_way_anova`` grouping and summing one observation at a time."""
    from gripstream.stats import (
        AnovaTable,
        EffectRow,
        UnbalancedDesign,
        f_upper_tail,
    )

    cells: dict[tuple, list[float]] = {}
    levels_a: list = []
    levels_b: list = []
    for level_a, level_b, value in observations:
        if level_a not in levels_a:
            levels_a.append(level_a)
        if level_b not in levels_b:
            levels_b.append(level_b)
        cells.setdefault((level_a, level_b), []).append(float(value))

    if len(levels_a) < 2 or len(levels_b) < 2:
        raise ValueError(
            f"need >= 2 levels per factor, got {len(levels_a)} x {len(levels_b)}"
        )
    for la in levels_a:
        for lb in levels_b:
            if (la, lb) not in cells:
                raise ValueError(f"no observations for cell ({la!r}, {lb!r})")
    counts = {cell: len(vals) for cell, vals in cells.items()}
    if len(set(counts.values())) != 1:
        raise UnbalancedDesign(counts)
    n = next(iter(counts.values()))
    if n < 2:
        raise ValueError(f"every cell needs >= 2 observations, got n={n}")

    a, b = len(levels_a), len(levels_b)
    total = a * b * n
    grand = math.fsum(math.fsum(vals) for vals in cells.values()) / total
    cell_mean = {cell: math.fsum(vals) / n for cell, vals in cells.items()}
    row_mean = {la: math.fsum(cell_mean[(la, lb)] for lb in levels_b) / b for la in levels_a}
    col_mean = {lb: math.fsum(cell_mean[(la, lb)] for la in levels_a) / a for lb in levels_b}

    ss_a = n * b * math.fsum((row_mean[la] - grand) ** 2 for la in levels_a)
    ss_b = n * a * math.fsum((col_mean[lb] - grand) ** 2 for lb in levels_b)
    ss_ab = n * math.fsum(
        (cell_mean[(la, lb)] - row_mean[la] - col_mean[lb] + grand) ** 2
        for la in levels_a
        for lb in levels_b
    )
    ss_err = math.fsum(
        math.fsum((v - cell_mean[cell]) ** 2 for v in vals) for cell, vals in cells.items()
    )

    df_a, df_b = a - 1, b - 1
    df_ab, df_err = df_a * df_b, total - a * b
    ms_err = ss_err / df_err

    def tested(name: str, ss: float, df: int) -> EffectRow:
        ms = ss / df
        if ms_err == 0.0:
            return EffectRow(name, ss, df, ms, None, 1.0 if ss == 0.0 else None)
        f = ms / ms_err
        return EffectRow(name, ss, df, ms, f, f_upper_tail(f, df, df_err))

    name_a, name_b = factor_names
    return AnovaTable(
        effect_a=tested(name_a, ss_a, df_a),
        effect_b=tested(name_b, ss_b, df_b),
        interaction=tested(f"{name_a} x {name_b}", ss_ab, df_ab),
        error=EffectRow("error", ss_err, df_err, ms_err),
        cells={cell: mean_sem_reference(vals) for cell, vals in cells.items()},
    )


def mean_sem_reference(values):
    """``stats.mean_sem`` with a ``(v - mean) ** 2`` generator."""
    from gripstream.stats import CellSummary

    values = [float(v) for v in values]
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarize zero values")
    mean = math.fsum(values) / n
    if n == 1:
        return CellSummary(mean, 0.0, 1, degenerate=True)
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return CellSummary(mean, math.sqrt(variance / n), n)


def window_profile_reference(series, window_ms=2000, statistic="mean",
                             partial_policy="drop", sensor=None):
    """``profiling.window_profile`` bucketing each sample through a dict."""
    from gripstream.profiling import (
        GripForceProfile,
        PartialPolicy,
        ProfileWindow,
        Statistic,
        check_window,
    )
    from gripstream.protocol import NOMINAL_INTERVAL_MS

    samples = list(series)
    if not samples:
        raise ValueError("cannot profile an empty series")
    check_window(window_ms)
    statistic = Statistic(statistic)
    partial_policy = PartialPolicy(partial_policy)

    t0 = samples[0][0]
    last_t = t0
    expected = window_ms // NOMINAL_INTERVAL_MS
    buckets: dict[int, list[int]] = {}
    for t, value in samples:
        if t < last_t:
            raise ValueError(f"timestamps must be non-decreasing, got {t} after {last_t}")
        last_t = t
        buckets.setdefault((t - t0) // window_ms, []).append(value)

    windows = []
    for index in range(int(max(buckets)) + 1):
        values = buckets.get(index, [])
        if partial_policy is PartialPolicy.DROP_INCOMPLETE and len(values) < expected:
            continue
        if values:
            value = max(values) if statistic is Statistic.PEAK else sum(values) / len(values)
        else:
            value = float("nan")
        windows.append(ProfileWindow(index, t0 + index * window_ms, value, len(values)))
    return GripForceProfile(sensor, window_ms, statistic, tuple(windows))


def profile_csv_reference(profile) -> str:
    """``profiling.profile_csv`` written by ``csv.writer``, quantizing in the default context."""
    import csv
    import io
    from decimal import ROUND_HALF_UP, Decimal

    from gripstream.profiling import PROFILE_CSV_HEADER

    if not profile.windows:
        raise ValueError("cannot export an empty profile")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PROFILE_CSV_HEADER.split(","))
    for window in profile.windows:
        value = Decimal(repr(window.value_mv)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
        writer.writerow([window.index, window.start_ms, str(value), window.sample_count])
    return out.getvalue()


# The file loaders and the stream decoder as they stood before the package
# moved them onto columns: one decode_frame, one GloveFrame and one order
# check per frame or row. The package must return equal recordings and
# frames, or raise the same exception class with the same message.


def check_frames_reference(frames, hand) -> None:
    """``SessionRecording``'s frame rule, one frame at a time: at least one frame, all of
    ``hand`` and in increasing seq."""
    from gripstream.recording import MisplacedFrame

    if not frames:
        raise ValueError("a recording holds at least one frame")
    last_seq = -1
    for index, frame in enumerate(frames):
        if frame.hand != hand:
            raise MisplacedFrame(f"frame seq={frame.seq} has hand {frame.hand.name}", index)
        if frame.seq <= last_seq:
            raise MisplacedFrame(f"frames not sorted by seq at seq={frame.seq}", index)
        last_seq = frame.seq


def placed_reference(frames, hand) -> tuple[list, int]:
    """(kept frames, dropped count) of the receiver's rule, one frame at a time: keep each
    frame of ``hand`` whose seq exceeds the last kept seq."""
    kept, dropped, last_seq = [], 0, -1
    for frame in frames:
        if frame.hand != hand or frame.seq <= last_seq:
            dropped += 1
        else:
            kept.append(frame)
            last_seq = frame.seq
    return kept, dropped


def from_binary_reference(blob: bytes):
    """``ingest._from_binary`` decoding and checking one frame at a time."""
    import struct

    from gripstream.ingest import (
        _EXPERTISE_BY_CODE,
        _HEADER_FIXED,
        BINARY_MAGIC,
        MalformedFile,
    )
    from gripstream.protocol import FRAME_SIZE, FrameError, Hand, decode_frame
    from gripstream.recording import MisplacedFrame, SessionRecording

    def need(offset: int, count: int) -> bytes:
        if offset + count > len(blob):
            raise MalformedFile("file ends mid-field", offset=len(blob))
        return blob[offset:offset + count]

    if need(0, 4) != BINARY_MAGIC:
        raise MalformedFile(f"bad file magic {blob[:4]!r}", offset=0)
    pos = 4
    (user_len,) = struct.unpack("<H", need(pos, 2))
    pos += 2
    try:
        user_id = need(pos, user_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"user_id is not valid utf-8: {exc}", offset=pos) from exc
    pos += user_len
    exp_code, hand_code, session_index, count = _HEADER_FIXED.unpack(need(pos, _HEADER_FIXED.size))
    if exp_code not in _EXPERTISE_BY_CODE:
        raise MalformedFile(f"unknown expertise code {exp_code}", offset=pos)
    if hand_code not in (0, 1):
        raise MalformedFile(f"unknown hand code {hand_code}", offset=pos + 1)
    pos += _HEADER_FIXED.size
    frames = []
    for i in range(count):
        raw = need(pos, FRAME_SIZE)
        try:
            frames.append(decode_frame(raw))
        except FrameError as exc:
            raise MalformedFile(f"frame {i} is corrupt: {exc}", offset=pos) from exc
        pos += FRAME_SIZE
    if pos != len(blob):
        raise MalformedFile(f"{len(blob) - pos} trailing bytes after last frame", offset=pos)
    if not frames:
        raise MalformedFile("a recording holds at least one frame", offset=pos)
    try:
        return SessionRecording(
            user_id=user_id,
            expertise=_EXPERTISE_BY_CODE[exp_code],
            session_index=session_index,
            hand=Hand(hand_code),
            frames=frames,
        )
    except MisplacedFrame as exc:
        raise MalformedFile(str(exc), offset=pos - (count - exc.index) * FRAME_SIZE) from exc


def write_csv_reference(recording) -> str:
    """``ingest._csv_text`` written by ``csv.writer``, one row of 18 fields per frame."""
    import csv
    import io
    from itertools import repeat

    from gripstream.ingest import CSV_HEADER
    from gripstream.protocol import SENSOR_COUNT

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    meta = (recording.user_id, recording.expertise.value, recording.session_index,
            recording.hand.name.lower())
    frames = recording.frames
    amplitudes = (frames.amplitudes[k::SENSOR_COUNT] for k in range(SENSOR_COUNT))
    writer.writerows(zip(*map(repeat, meta), frames.seq, frames.timestamp_ms, *amplitudes))
    return text.getvalue()


def parse_csv_reference(blob: bytes, name: str):
    """``ingest._parse_csv`` parsing and checking one row at a time."""
    import csv
    import io

    from gripstream.ingest import CSV_HEADER, MalformedFile, _csv_int, _csv_rows
    from gripstream.protocol import SENSOR_COUNT, GloveFrame, Hand
    from gripstream.recording import Expertise, SessionRecording

    columns = CSV_HEADER.split(",")
    amp_columns = columns[-SENSOR_COUNT:]
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{name} is not valid utf-8: {exc}") from exc
    rows = _csv_rows(csv.reader(io.StringIO(text)))
    try:
        _, header = next(rows)
    except StopIteration:
        raise MalformedFile("empty file", line=1) from None
    if header != columns:
        raise MalformedFile(f"header mismatch, expected {CSV_HEADER!r}", line=1)

    meta = None
    frames = []
    last_seq = -1
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(columns):
            raise MalformedFile(f"expected {len(columns)} fields, got {len(row)}", line=lineno)
        user_id, expertise_text, session_text, hand_text, seq_text, timestamp_text, *amp_texts = row
        try:
            expertise = Expertise(expertise_text.lower())
        except ValueError:
            raise MalformedFile(
                f"unknown expertise {expertise_text!r}", line=lineno, column="expertise"
            ) from None
        hand_name = hand_text.lower()
        if hand_name not in ("left", "right"):
            raise MalformedFile(f"unknown hand {hand_text!r}", line=lineno, column="hand")
        hand = Hand.LEFT if hand_name == "left" else Hand.RIGHT
        row_meta = (user_id, expertise, _csv_int(session_text, lineno, "session_index"), hand)
        if meta is None:
            meta, first_line = row_meta, lineno
        elif row_meta != meta:
            raise MalformedFile("session metadata changes between rows", line=lineno)

        seq = _csv_int(seq_text, lineno, "seq")
        if seq <= last_seq:
            raise MalformedFile(f"seq {seq} not increasing", line=lineno, column="seq")
        last_seq = seq
        timestamp = _csv_int(timestamp_text, lineno, "timestamp_ms")
        amps = tuple(
            _csv_int(value, lineno, column) for value, column in zip(amp_texts, amp_columns)
        )
        try:
            frames.append(GloveFrame(hand, seq, timestamp, amps))
        except ValueError as exc:
            raise MalformedFile(str(exc), line=lineno) from None
    if meta is None:
        raise MalformedFile("no data rows; session metadata is unrecoverable", line=1)
    # what the binary format holds: a u16-prefixed UTF-8 id and a u32 session index
    if len(meta[0].encode("utf-8")) > 0xFFFF:
        raise MalformedFile("user_id must be a str of at most 65535 UTF-8 bytes", line=first_line)
    if not 0 <= meta[2] <= 0xFFFFFFFF:
        raise MalformedFile(f"session_index must be an int in 0..4294967295, got {meta[2]}",
                            line=first_line)
    return SessionRecording(
        user_id=meta[0], expertise=meta[1], session_index=meta[2], hand=meta[3], frames=frames
    )


class FrameStreamDecoderReference:
    """``ingest.FrameStreamDecoder`` scanning window by window with ``decode_frame``."""

    def __init__(self):
        self._buf = bytearray()
        self._aligned = True
        self.errors = 0

    def feed(self, data: bytes) -> list:
        from gripstream.protocol import FRAME_MAGIC, FRAME_SIZE, FrameError, decode_frame

        buf = self._buf
        buf.extend(data)
        frames = []
        pos = 0
        while pos + FRAME_SIZE <= len(buf):
            if buf[pos] == FRAME_MAGIC:
                try:
                    frames.append(decode_frame(buf[pos:pos + FRAME_SIZE]))
                except FrameError:
                    pass
                else:
                    self._aligned = True
                    pos += FRAME_SIZE
                    continue
            if self._aligned:
                self.errors += 1
                self._aligned = False
            pos = buf.find(FRAME_MAGIC, pos + 1)
            if pos < 0:
                pos = len(buf)
        del buf[:pos]
        return frames

    @property
    def pending(self) -> int:
        return len(self._buf)
