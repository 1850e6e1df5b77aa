"""Receive, validate and persist glove frame streams.

The receiving side binds a stream socket, accepts one connection per
glove (at least two simultaneously for bi-manual sessions), decodes the
fixed 41-octet frames and assembles one SessionRecording per connection.
Corrupted frames are tallied and skipped, never fatal; out-of-order
frames are dropped and tallied.

Persistence formats:

  binary  magic ``GFS1`` | u16 user_id length + utf-8 bytes | u8 expertise
          (0 novice, 1 trained, 2 expert) | u8 hand | u32 session_index |
          u32 frame count | count x 41-octet wire frames
          (all integers little-endian)

  csv     header ``user_id,expertise,session_index,hand,seq,timestamp_ms,
          s1,...,s12``, one row per frame, amplitudes in mV
"""

from __future__ import annotations

import csv
import io
import math
import selectors
import socket
import struct
import time
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import sub

from .protocol import (
    FRAME_MAGIC,
    FRAME_SIZE,
    SENSOR_COUNT,
    FrameError,
    Frames,
    Hand,
    check_endpoint,
    check_frame_fields,
    decode_frame,
    decode_frames,
    encode_frame,  # noqa: F401  re-exported: perfbench/layers.py wraps ingest.encode_frame
    encode_frames,
)
from .recording import (
    Expertise,
    IoFailure,
    MisplacedFrame,
    SessionRecording,
    check_meta,
    placed,
    write_file,
)

BINARY_MAGIC = b"GFS1"
CSV_HEADER = (
    "user_id,expertise,session_index,hand,seq,timestamp_ms,"
    "s1,s2,s3,s4,s5,s6,s7,s8,s9,s10,s11,s12"
)
_CSV_INTS = 2 + SENSOR_COUNT  # integer fields after a row's metadata: seq, timestamp_ms, s1..s12

_EXPERTISE_CODES = {Expertise.NOVICE: 0, Expertise.TRAINED: 1, Expertise.EXPERT: 2}
_EXPERTISE_BY_CODE = {v: k for k, v in _EXPERTISE_CODES.items()}
_HEADER_FIXED = struct.Struct("<BBII")  # expertise, hand, session_index, frame count
_RESYNC_RUN = 8  # frames decoded in bulk right after a resync; doubles with each whole run


class BindFailure(OSError):
    """The listen endpoint could not be bound."""


class MalformedFile(ValueError):
    """A session file that cannot be parsed; carries position diagnostics."""

    def __init__(self, message: str, *, offset: int | None = None, line: int | None = None,
                 column: str | None = None):
        where = []
        if offset is not None:
            where.append(f"byte offset {offset}")
        if line is not None:
            where.append(f"line {line}")
        if column is not None:
            where.append(f"column {column!r}")
        super().__init__(f"{message} ({', '.join(where)})" if where else message)
        self.offset = offset
        self.line = line
        self.column = column


class FrameStreamDecoder:
    """Incremental decoder for back-to-back wire frames on a byte stream.

    Feed received chunks with :meth:`feed`; decoded frames come back in
    order, as :class:`~.protocol.Frames`. Only a 41-octet window that
    starts with the magic and passes :func:`decode_frame` yields a frame.
    After any failure the decoder moves to the next magic byte, one past the
    failed position, so an intact frame right after a corrupted one is
    still found. ``errors`` counts corruption events: a failure while the
    stream was aligned counts once, and further failures count nothing
    until a valid frame realigns the stream. Bytes of an incomplete
    trailing window wait in :attr:`pending` for the next chunk.

    Frames come only from bulk runs of :func:`decode_frames`; from the
    first frame that fails until a window decodes again, the decoder only
    probes windows at magic bytes with :func:`decode_frame`, and the one
    that passes starts the next run. A run after a resync starts short and
    doubles, so a stream dense with damage is not decoded in bulk over and over.
    """

    def __init__(self):
        self._buf = bytearray()
        self._aligned = True
        self.errors = 0

    def feed(self, data: bytes) -> Frames:
        buf = self._buf
        buf.extend(data)
        parts = []
        pos, run = 0, len(buf)
        while pos + FRAME_SIZE <= len(buf):
            if self._aligned:
                want = min(run, (len(buf) - pos) // FRAME_SIZE)
                frames = decode_frames(buf, pos, want)
                parts.append(frames)
                pos += len(frames) * FRAME_SIZE
                if len(frames) == want:
                    run *= 2
                    continue
                run = _RESYNC_RUN
                self.errors += 1
                self._aligned = False
            elif buf[pos] == FRAME_MAGIC:
                try:
                    decode_frame(buf[pos:pos + FRAME_SIZE])
                except FrameError:
                    pass
                else:  # the bulk run decodes this frame as its first
                    self._aligned = True
                    continue
            pos = buf.find(FRAME_MAGIC, pos + 1)
            if pos < 0:
                pos = len(buf)
        del buf[:pos]
        return Frames.concat(parts)

    @property
    def pending(self) -> int:
        return len(self._buf)


@dataclass(frozen=True)
class GapReport:
    """Missing frames inferred from seq discontinuities."""

    expected_frames: int
    received_frames: int
    gaps: tuple[tuple[int, int], ...]  # (after_seq, missing count)

    @property
    def missing(self) -> int:
        return sum(count for _, count in self.gaps)


def detect_gaps(recording: SessionRecording) -> GapReport:
    """Find seq holes. Expected count spans first..last seq inclusive."""
    seq = recording.frames.seq
    # seq strictly increases, so a hole is >= 0 and true exactly when frames are missing
    holes = list(map(sub, map(sub, islice(seq, 1, None), seq), repeat(1)))
    return GapReport(seq[-1] - seq[0] + 1, len(seq),
                     tuple(zip(compress(seq, holes), compress(holes, holes))))


def check_connections(connections: int) -> int:
    """``connections`` if at least one glove is expected, else ValueError."""
    if not connections >= 1:
        raise ValueError(f"connections must be at least 1, got {connections}")
    return connections


def check_timeout(timeout: float | None) -> float | None:
    """``timeout`` if it is None (no deadline) or positive and finite seconds, else ValueError."""
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError(f"timeout must be positive and finite, got {timeout}")
    return timeout


class SessionRecorder:
    """Accepts glove connections and assembles one recording per connection.

    :meth:`run` serves every connection from one selector loop in the
    caller's thread, under one overall deadline of ``timeout`` seconds. A
    recording is built only for a connection that delivered at least one
    valid frame. Chunks are decoded as they arrive, on purpose: that work lets frames
    pile up in the socket between reads. The recording rule (:func:`~.recording.placed`)
    runs once per connection, at close. The bound address is available as :attr:`address`
    before :meth:`run` is called, so callers can bind port 0 and stream to the real port.
    Bad metadata, endpoint, ``connections`` or ``timeout`` raises ValueError before any bind.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 user_id: str, expertise: Expertise, session_index: int,
                 connections: int = 1, timeout: float | None = None):
        self._meta = check_meta(user_id, expertise, session_index)
        self._connections = check_connections(connections)
        self._timeout = check_timeout(timeout)
        check_endpoint(host, port)
        try:
            self._server = socket.create_server((host, port))
        except OSError as exc:
            raise BindFailure(f"cannot bind {host}:{port}: {exc}") from exc

    @property
    def address(self) -> tuple[str, int]:
        name = self._server.getsockname()
        return name[0], name[1]

    def run(self) -> list[SessionRecording]:
        """Receive until ``connections`` peers have streamed and disconnected.

        When the ``timeout`` deadline passes first, the open connections are
        closed and what each delivered is kept; ``None`` waits forever.
        Recordings come back in accept order.
        """
        deadline = time.monotonic() + (math.inf if self._timeout is None else self._timeout)
        peers: list[tuple[FrameStreamDecoder, list[Frames]]] = []
        with self._server, selectors.DefaultSelector() as selector, ExitStack() as conns:
            selector.register(self._server, selectors.EVENT_READ)
            while selector.get_map() and time.monotonic() < deadline:
                # epoll waits at most 2**31 - 1 ms a call; the loop waits on to the deadline
                wait = min(deadline - time.monotonic(), 2e6)
                for key, _events in selector.select(wait):
                    if key.data is None:
                        conn = conns.enter_context(self._server.accept()[0])
                        peers.append((FrameStreamDecoder(), []))
                        selector.register(conn, selectors.EVENT_READ, peers[-1])
                        if len(peers) == self._connections:
                            selector.unregister(self._server)
                        continue
                    try:
                        chunk = key.fileobj.recv(65536)
                    except OSError:
                        chunk = b""
                    if chunk:
                        decoder, parts = key.data
                        parts.append(decoder.feed(chunk))
                    else:
                        selector.unregister(key.fileobj)
                        key.fileobj.close()
        recordings = []
        for decoder, parts in peers:
            if frames := Frames.concat(parts):
                kept = placed(frames, hand := Hand(frames.hands[0]))
                recordings.append(SessionRecording(*self._meta, hand, kept,
                                                   decode_errors=decoder.errors,
                                                   dropped_frames=len(frames) - len(kept)))
        return recordings


def save_session(recording: SessionRecording, path, format: str | None = None) -> None:
    """Write a recording to ``path`` as ``binary`` or ``csv``.

    With ``format=None`` the extension decides: ``.csv`` means csv,
    anything else binary.
    """
    fmt = format or ("csv" if str(path).lower().endswith(".csv") else "binary")
    if fmt not in ("binary", "csv"):
        raise ValueError(f"unknown format {format!r}")
    write_file(path, _to_binary(recording) if fmt == "binary" else _csv_text(recording))


def load_session(path) -> SessionRecording:
    """Read a recording saved by :func:`save_session`; format is sniffed."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if blob[:4] == BINARY_MAGIC:
        return _from_binary(blob)
    return _parse_csv(blob, str(path))


def _to_binary(recording: SessionRecording) -> bytes:
    user = recording.user_id.encode("utf-8")
    out = bytearray(BINARY_MAGIC)
    out += struct.pack("<H", len(user))
    out += user
    out += _HEADER_FIXED.pack(
        _EXPERTISE_CODES[recording.expertise],
        int(recording.hand),
        recording.session_index,
        len(recording.frames),
    )
    out += encode_frames(recording.frames)
    return bytes(out)


def _from_binary(blob: bytes) -> SessionRecording:
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
    if hand_code >= len(Hand):
        raise MalformedFile(f"unknown hand code {hand_code}", offset=pos + 1)
    pos += _HEADER_FIXED.size
    whole = min(count, (len(blob) - pos) // FRAME_SIZE)
    frames = decode_frames(blob, pos, whole)
    if len(frames) < whole:
        bad = pos + len(frames) * FRAME_SIZE
        try:
            decode_frame(blob[bad:bad + FRAME_SIZE])
        except FrameError as exc:
            raise MalformedFile(f"frame {len(frames)} is corrupt: {exc}", offset=bad) from exc
    pos += whole * FRAME_SIZE
    if whole < count:
        raise MalformedFile("file ends mid-field", offset=len(blob))
    if pos != len(blob):
        raise MalformedFile(f"{len(blob) - pos} trailing bytes after last frame", offset=pos)
    try:
        return SessionRecording(user_id, _EXPERTISE_BY_CODE[exp_code], session_index,
                                Hand(hand_code), frames)
    except ValueError as exc:  # a misplaced frame, or none at all: count 0, at the header end
        index = exc.index if isinstance(exc, MisplacedFrame) else 0
        raise MalformedFile(str(exc), offset=pos - (count - index) * FRAME_SIZE) from exc


def _csv_text(recording: SessionRecording) -> str:
    """The CSV file of ``recording``: the header, then one row per frame."""
    meta = io.StringIO()
    # with CR in the terminator, the writer quotes a CR in user_id as it does a LF
    csv.writer(meta, lineterminator="\r\n").writerow(
        (recording.user_id, recording.expertise.value, recording.session_index,
         recording.hand.name.lower()))
    row = meta.getvalue()[:-2].replace("%", "%%") + ",%d" * _CSV_INTS + "\n"
    frames = recording.frames
    amplitudes = (frames.amplitudes[k::SENSOR_COUNT] for k in range(SENSOR_COUNT))
    rows = map(row.__mod__, zip(frames.seq, frames.timestamp_ms, *amplitudes))
    return CSV_HEADER + "\n" + "".join(rows)


def _csv_int(value: str, lineno: int, column: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise MalformedFile(f"{value!r} is not an integer", line=lineno, column=column) from None


def _csv_rows(reader):
    """(first file line, row) per row read; syntax errors raise MalformedFile."""
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedFile(str(exc), line=reader.line_num) from None


_HAND_BY_NAME = {"left": Hand.LEFT, "right": Hand.RIGHT}
_CSV_BLOCK = 4096  # rows converted at once; bounds the memory the split fields take


def _csv_meta(fields, lineno: int) -> tuple[str, Expertise, int, Hand]:
    """A row's metadata as (user_id, Expertise, session_index, Hand), else MalformedFile."""
    user_id, expertise_text, session_text, hand_text = fields
    try:
        expertise = Expertise(expertise_text.lower())
    except ValueError:
        raise MalformedFile(f"unknown expertise {expertise_text!r}", line=lineno,
                            column="expertise") from None
    if (hand := _HAND_BY_NAME.get(hand_text.lower())) is None:
        raise MalformedFile(f"unknown hand {hand_text!r}", line=lineno, column="hand")
    return user_id, expertise, _csv_int(session_text, lineno, "session_index"), hand


def _csv_columns(text: str) -> SessionRecording | None:
    """The recording in ``text`` read by splitting, or None if the text is not plain.

    Plain text holds no quote, no CR and no line longer than the csv
    module's field limit, and its rows all begin with one and the same
    metadata text and then 14 integer fields in range, with increasing seq.
    Lines end at LF alone, as they do for ``csv.reader``. For anything else
    the per-row parser runs, which accepts what it can and names the line
    and column of what it cannot.
    """
    if '"' in text or "\r" in text:
        return None
    header, _, body = text.partition("\n")
    meta = body.partition("\n")[0].split(",", 4)[:4]  # the first row's
    prefix = "\n" + ",".join(meta) + ","
    stripped = ("\n" + body).replace(prefix, "\n")
    lines = stripped.split("\n")[1:]
    if not lines[-1]:
        del lines[-1]  # the final LF
    # the prefix matches only at a line start, so every line had it when the count is right
    if (header != CSV_HEADER or not lines
            or len(body) + 1 - len(stripped) != len(lines) * (len(prefix) - 1)
            or max(map(len, lines)) + len(prefix) - 1 > csv.field_size_limit()
            or set(map(str.count, lines, repeat(","))) != {_CSV_INTS - 1}):
        return None
    seq, timestamps, amplitudes = array("I"), array("Q"), array("H")
    try:
        for start in range(0, len(lines), _CSV_BLOCK):
            ints = list(map(int, ",".join(lines[start:start + _CSV_BLOCK]).split(",")))
            seq.extend(ints[0::_CSV_INTS])
            timestamps.extend(ints[1::_CSV_INTS])
            del ints[0::_CSV_INTS], ints[0::_CSV_INTS - 1]  # seq, then timestamp_ms
            amplitudes.extend(ints)
        meta = _csv_meta(meta, 2)
    except (ValueError, OverflowError):
        return None
    frames = Frames(bytes((meta[3],)) * len(seq), seq, timestamps, amplitudes)
    try:
        return SessionRecording(*meta, frames)
    except ValueError:  # the per-row parser names the line of what the recording refuses
        return None


def _parse_csv(blob: bytes, name: str) -> SessionRecording:
    columns = CSV_HEADER.split(",")
    amp_columns = columns[-SENSOR_COUNT:]
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{name} is not valid utf-8: {exc}") from exc
    recording = _csv_columns(text)
    if recording is not None:
        return recording
    rows = _csv_rows(csv.reader(io.StringIO(text)))
    try:
        _, header = next(rows)
    except StopIteration:
        raise MalformedFile("empty file", line=1) from None
    if header != columns:
        raise MalformedFile(f"header mismatch, expected {CSV_HEADER!r}", line=1)

    meta: tuple[str, Expertise, int, Hand] | None = None
    seqs, timestamps, amplitudes = array("I"), array("Q"), array("H")
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(columns):
            raise MalformedFile(f"expected {len(columns)} fields, got {len(row)}", line=lineno)
        row_meta = _csv_meta(row[:4], lineno)
        if meta is None:
            meta, first_line = row_meta, lineno
        elif row_meta != meta:
            raise MalformedFile("session metadata changes between rows", line=lineno)

        seq = _csv_int(row[4], lineno, "seq")
        if seq <= (seqs[-1] if seqs else -1):
            raise MalformedFile(f"seq {seq} not increasing", line=lineno, column="seq")
        timestamp = _csv_int(row[5], lineno, "timestamp_ms")
        amps = [_csv_int(value, lineno, column) for value, column in zip(row[6:], amp_columns)]
        try:
            check_frame_fields(seq, timestamp, amps)
        except ValueError as exc:
            raise MalformedFile(str(exc), line=lineno) from None
        seqs.append(seq)
        timestamps.append(timestamp)
        amplitudes.extend(amps)
    if meta is None:
        raise MalformedFile("no data rows; session metadata is unrecoverable", line=1)
    frames = Frames(bytes((meta[3],)) * len(seqs), seqs, timestamps, amplitudes)
    try:
        return SessionRecording(*meta, frames)
    except ValueError as exc:  # metadata a file format cannot hold
        raise MalformedFile(str(exc), line=first_line) from None
