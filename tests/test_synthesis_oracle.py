"""synthesize_session against the plain per-sample ``rng.gauss`` loop in oracles."""

import pytest

from gripstream.protocol import AMPLITUDE_MAX, Hand, encode_frame
from gripstream.recording import Expertise
from gripstream.simulator import (
    SessionSpec,
    UserProfile,
    preset_profile,
    synthesize_session,
)
from oracles import synthesize_reference


def assert_same_session(spec):
    got = synthesize_session(spec)
    want = synthesize_reference(spec)
    assert got == want
    assert list(map(encode_frame, got.frames)) == list(map(encode_frame, want.frames))
    return got


@pytest.mark.parametrize("duration_s", [0.02, 0.1, 0.14, 8.88, 120.0])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
@pytest.mark.parametrize("expertise", list(Expertise))
def test_preset_sessions_match_reference(expertise, seed, duration_s):
    profile = preset_profile(expertise, 1)
    assert_same_session(SessionSpec(profile, profile.handedness, 1, duration_s, seed))


def test_flat_profile_without_spread_matches_reference():
    models = {i: ((250.0, 0.0),) * 4 for i in range(1, 13)}
    spec = SessionSpec(UserProfile("flat", Expertise.NOVICE, models), Hand.RIGHT, 1, 10.0, 7)
    recording = assert_same_session(spec)
    assert {frame.amplitudes for frame in recording.frames} == {(250,) * 12}


def test_clamped_draws_match_reference():
    # odd sensors sit on the floor, even ones on the ceiling: about half their draws clamp
    models = {i: ((0.0 if i % 2 else float(AMPLITUDE_MAX), 800.0),) * 4 for i in range(1, 13)}
    spec = SessionSpec(UserProfile("clamp", Expertise.EXPERT, models), Hand.LEFT, 1, 20.0, 2**63)
    recording = assert_same_session(spec)
    values = [a for frame in recording.frames for a in frame.amplitudes]
    assert 0 in values and AMPLITUDE_MAX in values
    assert any(0 < a < AMPLITUDE_MAX for a in values)

