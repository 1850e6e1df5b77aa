"""Glove frame wire codec.

One frame carries a single 20 ms transmission from one glove: the hand,
a sequence counter, a session-relative timestamp, and the 12 sensor
amplitudes in millivolts. Frames are fixed-length (41 octets) and
self-delimiting on a byte stream:

    magic 0xA5 (1) | version 0x01 (1) | hand (1) | seq u32 (4) |
    timestamp_ms u64 (8) | 12 x amplitude u16 (24) |
    CRC-16/CCITT-FALSE over the preceding 39 octets (2)

All multi-byte fields are little-endian. Fixed length, leading magic and
the trailing CRC allow a receiver to resynchronize after corruption
without any extra framing.

In memory, frames are columns (:class:`Frames`). :func:`encode_frames` and
:func:`decode_frames` move whole columns to and from the wire form one
byte lane at a time: octet k of every frame at once, by strided slicing.
"""

from __future__ import annotations

import binascii
import struct
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, eq, gt, itemgetter, ne, sub

FRAME_MAGIC = 0xA5
FRAME_VERSION = 0x01
FRAME_SIZE = 41
CRC_OFFSET = 39  # CRC covers bytes [0, CRC_OFFSET)
SENSOR_COUNT = 12
AMPLITUDE_MAX = 0xFFFF
NOMINAL_INTERVAL_MS = 20
FRAMES_PER_SECOND = 1000 // NOMINAL_INTERVAL_MS

_BODY = struct.Struct("<BBBIQ12H")
_CRC = struct.Struct("<H")
assert _BODY.size == CRC_OFFSET and _BODY.size + _CRC.size == FRAME_SIZE
_CRC_BODIES = struct.Struct(f"{CRC_OFFSET}s{_CRC.size}x")  # the octets one CRC covers


class Hand(IntEnum):
    """Which glove a frame or recording belongs to. Wire value is one octet."""

    LEFT = 0
    RIGHT = 1


_HAND_BY_CODE = tuple(Hand)  # indexed by wire value, cheaper than calling Hand()


SENSOR_LABELS = {
    1: "distal phalanx, thumb",
    2: "distal phalanx, index finger",
    3: "distal phalanx, middle finger",
    4: "distal phalanx, ring finger",
    5: "distal phalanx, small finger",
    6: "middle phalanx, ring finger",
    7: "middle phalanx, small finger",
    8: "proximal phalanx, index finger",
    9: "proximal phalanx, middle finger",
    10: "palm, thenar eminence",
    11: "palm, hypothenar eminence",
    12: "palm, center",
}


@dataclass(frozen=True)
class SensorId:
    """One of the 12 force-sensor locations of a glove, indexed 1..12."""

    index: int
    label: str

    def __post_init__(self):
        if not 1 <= self.index <= SENSOR_COUNT:
            raise ValueError(f"sensor index must be in 1..{SENSOR_COUNT}, got {self.index}")

    @classmethod
    def of(cls, index: int) -> "SensorId":
        return cls(index, SENSOR_LABELS.get(index, ""))


SENSORS = tuple(SensorId.of(i) for i in range(1, SENSOR_COUNT + 1))


class FrameError(ValueError):
    """A byte buffer that cannot be decoded as a glove frame.

    The message names the cause; ``offset`` is the byte at fault: 0 magic,
    1 version, 2 hand, 39 CRC, or the length of a buffer that is not 41 octets.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True)
class GloveFrame:
    """One 20 ms transmission from one glove.

    ``amplitudes`` holds the 12 sensor readings in mV, indexed by
    ``SensorId.index - 1``. ``timestamp_ms`` is milliseconds since
    session start.
    """

    hand: Hand
    seq: int
    timestamp_ms: int
    amplitudes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "hand", Hand(self.hand))
        object.__setattr__(self, "amplitudes", tuple(self.amplitudes))
        check_frame_fields(self.seq, self.timestamp_ms, self.amplitudes)


def _trusted_frame(hand: Hand, seq: int, timestamp_ms: int, amplitudes: tuple) -> GloveFrame:
    """A GloveFrame without ``__post_init__``'s checks, for fields valid by construction:
    those ``decode_frame`` unpacks with ``struct``, and those read from ``Frames``' columns."""
    frame = object.__new__(GloveFrame)
    object.__setattr__(frame, "hand", hand)
    object.__setattr__(frame, "seq", seq)
    object.__setattr__(frame, "timestamp_ms", timestamp_ms)
    object.__setattr__(frame, "amplitudes", amplitudes)
    return frame


class Frames(Sequence):
    """Frames stored as parallel columns; reading an item builds its GloveFrame.

    ``hands`` is ``bytes``, one hand code octet per frame, ``seq`` an ``array('I')``,
    ``timestamp_ms`` an ``array('Q')`` and ``amplitudes`` an ``array('H')``
    of 12 per frame, row-major: sensor k of frame i at ``12 * i + k - 1``.
    The constructor takes the columns as given; :meth:`of` is the one conversion into
    columns and the one check of their types and lengths. The first iteration builds
    every GloveFrame and keeps them, so iterating again does not build them again.
    Frames compare equal to Frames with equal columns and to any sequence
    of equal GloveFrames.
    """

    __slots__ = ("hands", "seq", "timestamp_ms", "amplitudes", "_built")

    def __init__(self, hands: bytes, seq: array, timestamp_ms: array, amplitudes: array):
        self.hands = hands
        self.seq = seq
        self.timestamp_ms = timestamp_ms
        self.amplitudes = amplitudes
        self._built = None

    @classmethod
    def of(cls, frames) -> "Frames":
        """``frames`` itself if a Frames whose columns have the types and lengths the class
        states, else the columns of an iterable of GloveFrame; ValueError for anything else."""
        if isinstance(frames, Frames):
            columns = frames.seq, frames.timestamp_ms, frames.amplitudes
            if not (isinstance(frames.hands, bytes) and all(
                    isinstance(c, array) and c.typecode == t for c, t in zip(columns, "IQH"))):
                raise ValueError("frames must hold bytes hands and arrays of typecode I, Q and H")
            if not (len(frames.hands) == len(frames.timestamp_ms) == len(frames)
                    and len(frames.amplitudes) == SENSOR_COUNT * len(frames)):
                raise ValueError("frames columns disagree in length")
            return frames
        try:
            frames = list(frames)
        except TypeError:
            raise ValueError(f"frames must be an iterable of GloveFrame, "
                             f"got {type(frames).__name__}") from None
        for frame in frames:
            if not isinstance(frame, GloveFrame):
                raise ValueError(f"frames must be GloveFrames, got {type(frame).__name__}")
        return cls(bytes(map(attrgetter("hand"), frames)),
                   array("I", map(attrgetter("seq"), frames)),
                   array("Q", map(attrgetter("timestamp_ms"), frames)),
                   array("H", chain.from_iterable(map(attrgetter("amplitudes"), frames))))

    @classmethod
    def concat(cls, parts) -> "Frames":
        """One Frames holding the frames of each of ``parts`` in turn."""
        parts = list(parts)
        if len(parts) == 1:
            return parts[0]
        columns = array("I"), array("Q"), array("H")
        for part in parts:
            for column, values in zip(columns, (part.seq, part.timestamp_ms, part.amplitudes)):
                column.extend(values)
        return cls(b"".join(part.hands for part in parts), *columns)

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        first = i * SENSOR_COUNT
        return _trusted_frame(_HAND_BY_CODE[self.hands[i]], self.seq[i], self.timestamp_ms[i],
                              tuple(self.amplitudes[first:first + SENSOR_COUNT]))

    def __iter__(self):
        if self._built is None:
            rows = zip(*[iter(self.amplitudes)] * SENSOR_COUNT)
            self._built = list(map(_trusted_frame, map(_HAND_BY_CODE.__getitem__, self.hands),
                                   self.seq, self.timestamp_ms, rows))
        return iter(self._built)

    def __eq__(self, other):
        if isinstance(other, Frames):
            return (self.seq == other.seq and self.hands == other.hands
                    and self.timestamp_ms == other.timestamp_ms
                    and self.amplitudes == other.amplitudes)
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Frames({list(self)!r})"


def check_frame_fields(seq: int, timestamp_ms: int, amplitudes: Sequence[int]) -> tuple:
    """``(seq, timestamp_ms, amplitudes)`` if they fit u32, u64 and 12 x u16, else ValueError."""
    if not 0 <= seq <= 0xFFFFFFFF:
        raise ValueError(f"seq out of u32 range: {seq}")
    if not 0 <= timestamp_ms <= 0xFFFFFFFFFFFFFFFF:
        raise ValueError(f"timestamp_ms out of u64 range: {timestamp_ms}")
    if len(amplitudes) != SENSOR_COUNT:
        raise ValueError(f"expected {SENSOR_COUNT} amplitudes, got {len(amplitudes)}")
    for i, a in enumerate(amplitudes):
        if not 0 <= a <= AMPLITUDE_MAX:
            raise ValueError(f"amplitude s{i + 1} out of u16 range: {a}")
    return seq, timestamp_ms, amplitudes


def check_endpoint(host: str, port: int) -> tuple[str, int]:
    """``(host, port)`` if it names a stream endpoint (a host, port 0..65535), else ValueError."""
    if not host or not 0 <= port <= 0xFFFF:
        raise ValueError(f"endpoint must be HOST:PORT with port 0..65535, got {host}:{port}")
    return host, port


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection, no xorout."""
    return binascii.crc_hqx(data, 0xFFFF)


def encode_frame(frame: GloveFrame) -> bytes:
    """Serialize a frame to its 41-octet wire form."""
    body = _BODY.pack(
        FRAME_MAGIC,
        FRAME_VERSION,
        int(frame.hand),
        frame.seq,
        frame.timestamp_ms,
        *frame.amplitudes,
    )
    return body + _CRC.pack(crc16(body))


def decode_frame(data: bytes) -> GloveFrame:
    """Parse one 41-octet buffer back into a GloveFrame.

    Raises FrameError for a wrong length, magic, CRC, version or hand
    octet; its ``offset`` is the offending byte.
    """
    if len(data) != FRAME_SIZE:
        raise FrameError(f"frame must be {FRAME_SIZE} octets, got {len(data)}", len(data))
    if data[0] != FRAME_MAGIC:
        raise FrameError(f"expected magic 0x{FRAME_MAGIC:02X}, got 0x{data[0]:02X}", 0)
    expected = _CRC.unpack_from(data, CRC_OFFSET)[0]
    actual = crc16(data[:CRC_OFFSET])
    if actual != expected:
        raise FrameError(f"crc 0x{actual:04X} != stored 0x{expected:04X}", CRC_OFFSET)
    if data[1] != FRAME_VERSION:
        raise FrameError(f"protocol version {data[1]} not supported", 1)
    fields = _BODY.unpack_from(data)
    if fields[2] >= len(_HAND_BY_CODE):
        raise FrameError(f"unknown hand code {fields[2]}", 2)
    return _trusted_frame(_HAND_BY_CODE[fields[2]], fields[3], fields[4], fields[5:])


# (first octet, octets per frame) of the multi-byte fields a Frames column holds
_SEQ_LANES, _TIMESTAMP_LANES, _AMPLITUDE_LANES, _CRC_LANES = (3, 4), (7, 8), (15, 24), (39, 2)
_BIG_ENDIAN_HOST = sys.byteorder == "big"


def _wire_octets(column: array) -> bytes:
    """A column's items as little-endian octets."""
    if _BIG_ENDIAN_HOST:
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _from_wire(typecode: str, octets) -> array:
    column = array(typecode, octets)
    if _BIG_ENDIAN_HOST:
        column.byteswap()
    return column


def _scatter(wire: bytearray, lanes: tuple[int, int], octets: bytes) -> None:
    """Write field octets, ``width`` per frame, into their lanes of every frame."""
    first, width = lanes
    for k in range(width):
        wire[first + k::FRAME_SIZE] = octets[k::width]


def _gather(wire: bytes, lanes: tuple[int, int]) -> bytearray:
    """A field's octets, ``width`` per frame, read from its lanes of every frame."""
    first, width = lanes
    octets = bytearray(len(wire) // FRAME_SIZE * width)
    for k in range(width):
        octets[k::width] = wire[first + k::FRAME_SIZE]
    return octets


def _crcs(wire) -> array:
    """The CRC of each frame's first 39 octets."""
    bodies = map(itemgetter(0), _CRC_BODIES.iter_unpack(wire))
    return array("H", map(binascii.crc_hqx, bodies, repeat(0xFFFF)))


def encode_frames(frames: Frames) -> bytearray:
    """The wire form of every frame, back to back: :func:`encode_frame` of each, at once."""
    n = len(frames)
    wire = bytearray(n * FRAME_SIZE)
    wire[0::FRAME_SIZE] = bytes((FRAME_MAGIC,)) * n
    wire[1::FRAME_SIZE] = bytes((FRAME_VERSION,)) * n
    wire[2::FRAME_SIZE] = frames.hands
    _scatter(wire, _SEQ_LANES, _wire_octets(frames.seq))
    _scatter(wire, _TIMESTAMP_LANES, _wire_octets(frames.timestamp_ms))
    _scatter(wire, _AMPLITUDE_LANES, _wire_octets(frames.amplitudes))
    _scatter(wire, _CRC_LANES, _wire_octets(_crcs(wire)))
    return wire


def decode_frames(data, start: int, n: int) -> Frames:
    """Decode the ``n`` back-to-back frames at ``data[start:]`` up to the first that fails.

    The result holds the frames before the first one that
    :func:`decode_frame` rejects for its magic, CRC, version or hand octet:
    ``len(result) < n`` means that frame ``len(result)`` is such a frame.
    """
    wire = data[start:start + n * FRAME_SIZE]
    hands = bytes(wire[2::FRAME_SIZE])
    stored_crcs = _from_wire("H", _gather(wire, _CRC_LANES))
    valid = min(
        n - len(wire[0::FRAME_SIZE].lstrip(bytes((FRAME_MAGIC,)))),
        n - len(wire[1::FRAME_SIZE].lstrip(bytes((FRAME_VERSION,)))),
        n - len(hands.lstrip(bytes(_HAND_BY_CODE))),
        next(compress(count(), map(ne, _crcs(wire), stored_crcs)), n),
    )
    if valid < n:
        wire, hands = wire[:valid * FRAME_SIZE], hands[:valid]
    return Frames(hands, _from_wire("I", _gather(wire, _SEQ_LANES)),
                  _from_wire("Q", _gather(wire, _TIMESTAMP_LANES)),
                  _from_wire("H", _gather(wire, _AMPLITUDE_LANES)))


@dataclass(frozen=True)
class CadenceReport:
    """Deviations of a frame stream from the nominal 20 ms cadence."""

    nominal_ms: int
    tolerance_ms: float
    violations: tuple[tuple[int, int], ...]  # (seq of later frame, observed gap ms)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_cadence(frames, tolerance_ms: float = 0) -> CadenceReport:
    """Check inter-frame timestamp gaps against the 20 ms nominal spacing.

    ``frames`` is a Frames or an iterable of GloveFrame, ordered by seq.
    Every adjacent pair whose gap deviates from the nominal spacing by more
    than ``tolerance_ms`` is reported.
    """
    frames = Frames.of(frames)
    if len(frames) < 2:
        raise ValueError(f"cadence needs at least 2 frames, got {len(frames)}")
    if not tolerance_ms >= 0:
        raise ValueError("tolerance_ms must be >= 0")
    times = frames.timestamp_ms
    gaps = list(map(sub, islice(times, 1, None), times))
    deviations = map(abs, map(sub, gaps, repeat(NOMINAL_INTERVAL_MS)))
    late = list(map(gt, deviations, repeat(tolerance_ms)))
    violations = zip(compress(islice(frames.seq, 1, None), late), compress(gaps, late))
    return CadenceReport(NOMINAL_INTERVAL_MS, tolerance_ms, tuple(violations))
