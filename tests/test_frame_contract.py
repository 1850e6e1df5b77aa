"""Frames that decode_frame builds unchecked behave as frames the public constructor builds."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripstream.protocol import (
    AMPLITUDE_MAX,
    SENSOR_COUNT,
    GloveFrame,
    Hand,
    decode_frame,
    encode_frame,
)

frames = st.builds(
    GloveFrame,
    hand=st.sampled_from(Hand),
    seq=st.integers(0, 2**32 - 1),
    timestamp_ms=st.integers(0, 2**64 - 1),
    amplitudes=st.tuples(*[st.integers(0, AMPLITUDE_MAX)] * SENSOR_COUNT),
)


@settings(max_examples=300)
@given(frames, st.sampled_from(["hand", "seq", "timestamp_ms", "amplitudes"]))
def test_decoded_frame_equals_hashes_and_freezes_like_the_original(frame, attribute):
    decoded = decode_frame(encode_frame(frame))
    assert decoded == frame
    assert hash(decoded) == hash(frame)
    assert type(decoded.hand) is Hand
    assert type(decoded.amplitudes) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(decoded, attribute, getattr(frame, attribute))
    assert not hasattr(decoded, "__dict__")


def test_public_constructor_still_validates_under_slots():
    frame = decode_frame(encode_frame(GloveFrame(Hand.LEFT, 3, 60, (1,) * SENSOR_COUNT)))
    with pytest.raises(ValueError):
        dataclasses.replace(frame, seq=-1)
    with pytest.raises(ValueError):
        dataclasses.replace(frame, amplitudes=(AMPLITUDE_MAX + 1,) * SENSOR_COUNT)
    assert dataclasses.replace(frame, hand=1).hand is Hand.RIGHT
