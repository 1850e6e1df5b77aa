import math
import random
from functools import partial

import pytest

from gripstream.protocol import (
    FRAME_MAGIC,
    FRAME_SIZE,
    FRAME_VERSION,
    SENSOR_COUNT,
    SENSORS,
    FrameError,
    Frames,
    GloveFrame,
    Hand,
    SensorId,
    check_frame_fields,
    crc16,
    decode_frame,
    encode_frame,
    validate_cadence,
)
from oracles import crc16_bitwise

ZERO_FRAME = GloveFrame(Hand.LEFT, 0, 0, (0,) * 12)

# CRC-16/CCITT-FALSE of the 39-octet prefix of the all-zero left-hand frame,
# computed with the independent bitwise routine before the codec was written.
ZERO_PREFIX_CRC = 0x4C05


def frame_at(t_ms, seq, hand=Hand.LEFT, amps=(0,) * 12):
    return GloveFrame(hand, seq, t_ms, tuple(amps))


def test_crc_reference_check_value():
    # published check value for this CRC variant
    assert crc16(b"123456789") == 0x29B1
    assert crc16_bitwise(b"123456789") == 0x29B1


def test_crc_matches_bitwise_oracle_on_random_buffers():
    rng = random.Random(0xC0FFEE)
    for _ in range(200):
        buf = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
        assert crc16(buf) == crc16_bitwise(buf)


def test_zero_frame_layout():
    encoded = encode_frame(ZERO_FRAME)
    assert len(encoded) == FRAME_SIZE == 41
    assert encoded[0] == FRAME_MAGIC == 0xA5
    assert encoded[1] == FRAME_VERSION == 0x01
    assert encoded[2] == 0  # left hand
    assert encoded[3:39] == bytes(36)
    assert crc16(encoded[:39]) == ZERO_PREFIX_CRC
    assert int.from_bytes(encoded[39:], "little") == ZERO_PREFIX_CRC


def test_amplitude_slots_present():
    frame = frame_at(0, 0, amps=range(1, 13))
    encoded = encode_frame(frame)
    # 12 little-endian u16 slots between the u64 timestamp and the CRC
    for i in range(SENSOR_COUNT):
        lo, hi = encoded[15 + 2 * i], encoded[16 + 2 * i]
        assert lo | (hi << 8) == i + 1


def test_round_trip_identity():
    frame = GloveFrame(Hand.RIGHT, 1234, 56789, tuple(range(1, 13)))
    assert decode_frame(encode_frame(frame)) == frame
    assert encode_frame(decode_frame(encode_frame(frame))) == encode_frame(frame)


def test_round_trip_randomized():
    from oracles import random_frame

    rng = random.Random(7)
    for _ in range(500):
        frame = random_frame(rng)
        assert decode_frame(encode_frame(frame)) == frame


def test_flipped_last_octet_is_rejected():
    encoded = bytearray(encode_frame(ZERO_FRAME))
    encoded[-1] ^= 0x01
    with pytest.raises(FrameError, match=r"^crc 0x[0-9A-F]{4} != stored 0x[0-9A-F]{4}") as exc:
        decode_frame(bytes(encoded))
    assert exc.value.offset == 39


def test_only_41_octet_buffers_decode():
    encoded = encode_frame(frame_at(40, 2, amps=range(12)))
    padded = encoded + bytes(range(30))
    for length in range(61):
        buf = padded[:length]
        if length == FRAME_SIZE:
            assert decode_frame(buf) == frame_at(40, 2, amps=range(12))
        else:
            with pytest.raises(FrameError, match=f"^frame must be 41 octets, got {length} ") as exc:
                decode_frame(buf)
            assert exc.value.offset == length


def test_bad_magic_offset():
    encoded = bytearray(encode_frame(ZERO_FRAME))
    encoded[0] = 0x00
    with pytest.raises(FrameError, match="^expected magic 0xA5, got 0x00 ") as exc:
        decode_frame(bytes(encoded))
    assert exc.value.offset == 0


def test_unsupported_version():
    import struct

    body = bytearray(encode_frame(ZERO_FRAME)[:39])
    body[1] = 0x02
    buf = bytes(body) + struct.pack("<H", crc16(bytes(body)))
    with pytest.raises(FrameError, match="^protocol version 2 not supported ") as exc:
        decode_frame(buf)
    assert exc.value.offset == 1


def test_unknown_hand_byte_is_a_frame_error():
    from oracles import with_hand_byte

    wire = encode_frame(ZERO_FRAME)
    assert decode_frame(with_hand_byte(wire, 1)).hand == Hand.RIGHT
    for hand in (2, 0x7F, 0xFF):
        with pytest.raises(FrameError) as exc:
            decode_frame(with_hand_byte(wire, hand))
        assert exc.value.offset == 2


def test_every_single_bit_flip_is_caught():
    rng = random.Random(41)
    from oracles import random_frame

    for _ in range(5):
        frame = random_frame(rng)
        encoded = encode_frame(frame)
        for bit in range(FRAME_SIZE * 8):
            corrupted = bytearray(encoded)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(FrameError):
                decode_frame(bytes(corrupted))


def test_sensor_ids():
    assert len(SENSORS) == 12
    assert len({s.index for s in SENSORS}) == 12
    assert SensorId.of(7).label == "middle phalanx, small finger"
    with pytest.raises(ValueError):
        SensorId.of(0)
    with pytest.raises(ValueError):
        SensorId.of(13)


def test_frame_validation():
    """GloveFrame refuses what the field rule refuses, with the rule's message."""
    cases = [
        ((0, 0, (0,) * 11), "expected 12 amplitudes, got 11"),
        ((0, 0, (0,) * 11 + (65536,)), "amplitude s12 out of u16 range: 65536"),
        ((0, 0, [-1] + [0] * 11), "amplitude s1 out of u16 range: -1"),
        ((2**32, 0, (0,) * 12), "seq out of u32 range: 4294967296"),
        ((-1, 0, (0,) * 12), "seq out of u32 range: -1"),
        ((0, 2**64, (0,) * 12), "timestamp_ms out of u64 range: 18446744073709551616"),
        ((0, -1, (0,) * 12), "timestamp_ms out of u64 range: -1"),
    ]
    for fields, message in cases:
        for build in (check_frame_fields, partial(GloveFrame, Hand.LEFT)):
            with pytest.raises(ValueError) as exc:
                build(*fields)
            assert str(exc.value) == message
    top = (2**32 - 1, 2**64 - 1, [0xFFFF] * 12)
    assert check_frame_fields(*top) == top
    frame = GloveFrame(1, *top)  # a hand code and a list of amplitudes are converted
    assert frame.hand is Hand.RIGHT and frame.amplitudes == (0xFFFF,) * 12
    assert type(frame.amplitudes) is tuple


def test_cadence_exact_spacing_is_clean():
    frames = [frame_at(t, i) for i, t in enumerate(range(0, 80, 20))]
    for tolerance in (0, 1, 5):
        report = validate_cadence(frames, tolerance)
        assert report.ok
        assert report.nominal_ms == 20


def test_cadence_gap_reported():
    frames = [frame_at(0, 0), frame_at(20, 1), frame_at(100, 2)]
    report = validate_cadence(frames, tolerance_ms=1)
    assert report.violations == ((2, 80),)


@pytest.mark.parametrize("tolerance", [-1, math.nan])
def test_cadence_rejects_negative_or_nan_tolerance(tolerance):
    frames = [frame_at(0, 0), frame_at(20, 1), frame_at(500, 2)]
    with pytest.raises(ValueError, match="tolerance_ms must be >= 0"):
        validate_cadence(frames, tolerance)


def test_cadence_needs_two_frames():
    with pytest.raises(ValueError, match="^cadence needs at least 2 frames, got 1$"):
        validate_cadence([frame_at(0, 0)], 1)
    with pytest.raises(ValueError, match="^cadence needs at least 2 frames, got 0$"):
        validate_cadence([], 1)


def test_hundred_frames_fill_one_window():
    frames = [frame_at(i * 20, i) for i in range(100)]
    assert validate_cadence(frames, 0).ok
    # all 100 samples land strictly inside a single 2000 ms window
    assert frames[-1].timestamp_ms - frames[0].timestamp_ms == 1980
    assert sum(1 for f in frames if f.timestamp_ms < 2000) == 100


def test_frames_slice_repr_and_foreign_equality():
    frames = [frame_at(i * 20, i, amps=(i,) * 12) for i in range(4)]
    columns = Frames.of(frames)
    assert columns[1:3] == frames[1:3]
    assert type(columns[1:3]) is list
    assert columns[::-2] == frames[::-2]
    assert repr(Frames.of(frames[:1])) == (
        "Frames([GloveFrame(hand=<Hand.LEFT: 0>, seq=0, timestamp_ms=0, "
        "amplitudes=(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))])")
    assert columns.__eq__(5) is NotImplemented
    assert (columns == 5) is False and (columns != 5) is True
