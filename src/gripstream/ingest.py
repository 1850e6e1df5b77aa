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
import selectors
import socket
import struct
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

from .protocol import (
    FRAME_MAGIC,
    FRAME_SIZE,
    SENSOR_COUNT,
    FrameError,
    GloveFrame,
    Hand,
    decode_frame,
    encode_frame,
)
from .recording import EmptyRecording, Expertise, IoFailure, MisplacedFrame, SessionRecording

BINARY_MAGIC = b"GFS1"
CSV_HEADER = (
    "user_id,expertise,session_index,hand,seq,timestamp_ms,"
    "s1,s2,s3,s4,s5,s6,s7,s8,s9,s10,s11,s12"
)

_EXPERTISE_CODES = {Expertise.NOVICE: 0, Expertise.TRAINED: 1, Expertise.EXPERT: 2}
_EXPERTISE_BY_CODE = {v: k for k, v in _EXPERTISE_CODES.items()}
_HEADER_FIXED = struct.Struct("<BBII")  # expertise, hand, session_index, frame count


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
    order. Only a 41-octet window that starts with the magic and passes
    :func:`decode_frame` yields a frame. After any failure the decoder
    moves to the next magic byte, one past the failed position, so an
    intact frame right after a corrupted one is still found. ``errors``
    counts corruption events: a failure while the stream was aligned
    counts once, and further failures count nothing until a valid frame
    realigns the stream. Bytes of an incomplete trailing window wait in
    :attr:`pending` for the next chunk.
    """

    def __init__(self):
        self._buf = bytearray()
        self._aligned = True
        self.errors = 0

    def feed(self, data: bytes) -> list[GloveFrame]:
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
    if not recording.frames:
        raise EmptyRecording("cannot detect gaps in an empty recording")
    gaps = []
    frames = recording.frames
    for prev, cur in zip(frames, frames[1:]):
        hole = cur.seq - prev.seq - 1
        if hole > 0:
            gaps.append((prev.seq, hole))
    expected = frames[-1].seq - frames[0].seq + 1
    return GapReport(expected, len(frames), tuple(gaps))


@dataclass
class _Peer:
    """What one accepted connection has delivered so far."""

    decoder: FrameStreamDecoder = field(default_factory=FrameStreamDecoder)
    frames: list[GloveFrame] = field(default_factory=list)
    hand: Hand | None = None
    dropped: int = 0

    def take(self, chunk: bytes) -> None:
        """Keep each decoded frame of the first hand seen whose seq increases."""
        for frame in self.decoder.feed(chunk):
            if self.hand is None:
                self.hand = frame.hand
            if frame.hand != self.hand or (self.frames and frame.seq <= self.frames[-1].seq):
                self.dropped += 1
            else:
                self.frames.append(frame)


class SessionRecorder:
    """Accepts glove connections and assembles one recording per connection.

    :meth:`run` serves every connection from one selector loop in the
    caller's thread, under one overall deadline of ``timeout`` seconds. A
    recording is built only for a connection that delivered at least one
    valid frame. The bound address is available as :attr:`address` before
    :meth:`run` is called, so callers can bind port 0 and stream to the real port.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 user_id: str, expertise: Expertise, session_index: int,
                 connections: int = 1, timeout: float | None = None):
        self._meta = (user_id, Expertise(expertise), session_index)
        self._connections = connections
        self._timeout = timeout
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
        deadline = None if self._timeout is None else time.monotonic() + self._timeout
        peers: list[_Peer] = []
        with self._server, selectors.DefaultSelector() as selector, ExitStack() as conns:
            if self._connections > 0:
                selector.register(self._server, selectors.EVENT_READ)
            while selector.get_map() and (deadline is None or time.monotonic() < deadline):
                wait = None if deadline is None else deadline - time.monotonic()
                for key, _events in selector.select(wait):
                    if key.data is None:
                        conn = conns.enter_context(self._server.accept()[0])
                        peers.append(_Peer())
                        selector.register(conn, selectors.EVENT_READ, peers[-1])
                        if len(peers) == self._connections:
                            selector.unregister(self._server)
                        continue
                    try:
                        chunk = key.fileobj.recv(65536)
                    except OSError:
                        chunk = b""
                    if chunk:
                        key.data.take(chunk)
                    else:
                        selector.unregister(key.fileobj)
                        key.fileobj.close()
        return [
            SessionRecording(*self._meta, peer.hand, peer.frames,
                             decode_errors=peer.decoder.errors, dropped_frames=peer.dropped)
            for peer in peers if peer.hand is not None
        ]


def record(host: str = "127.0.0.1", port: int = 0, *, user_id: str, expertise: Expertise,
           session_index: int, connections: int = 1,
           timeout: float | None = None) -> list[SessionRecording]:
    """Bind, accept ``connections`` glove streams, and return their recordings."""
    recorder = SessionRecorder(
        host, port,
        user_id=user_id, expertise=expertise, session_index=session_index,
        connections=connections, timeout=timeout,
    )
    return recorder.run()


def save_session(recording: SessionRecording, path, format: str | None = None) -> None:
    """Write a recording to ``path`` as ``binary`` or ``csv``.

    With ``format=None`` the extension decides: ``.csv`` means csv,
    anything else binary.
    """
    fmt = format or ("csv" if str(path).lower().endswith(".csv") else "binary")
    if fmt not in ("binary", "csv"):
        raise ValueError(f"unknown format {format!r}")
    try:
        if fmt == "binary":
            with open(path, "wb") as fh:
                fh.write(_to_binary(recording))
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                _write_csv(recording, fh)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


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
    if len(user) > 0xFFFF:
        raise ValueError("user_id too long to persist")
    out = bytearray(BINARY_MAGIC)
    out += struct.pack("<H", len(user))
    out += user
    out += _HEADER_FIXED.pack(
        _EXPERTISE_CODES[recording.expertise],
        int(recording.hand),
        recording.session_index,
        len(recording.frames),
    )
    for frame in recording.frames:
        out += encode_frame(frame)
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


def _write_csv(recording: SessionRecording, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for frame in recording.frames:
        writer.writerow([
            recording.user_id,
            recording.expertise.value,
            recording.session_index,
            recording.hand.name.lower(),
            frame.seq,
            frame.timestamp_ms,
            *frame.amplitudes,
        ])


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


def _parse_csv(blob: bytes, name: str) -> SessionRecording:
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

    meta: tuple[str, Expertise, int, Hand] | None = None
    frames: list[GloveFrame] = []
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
            meta = row_meta
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
    return SessionRecording(
        user_id=meta[0], expertise=meta[1], session_index=meta[2], hand=meta[3], frames=frames
    )
