import math
import re
import socket
import threading
from array import array

import pytest

from gripstream.protocol import (
    FRAME_SIZE,
    NOMINAL_INTERVAL_MS,
    SENSOR_COUNT,
    Frames,
    Hand,
    decode_frame,
    validate_cadence,
)
from gripstream.recording import Expertise, SessionRecording
from gripstream.simulator import (
    ConnectionRefused,
    SessionSpec,
    UserProfile,
    calibrate_to_cell,
    check_session,
    check_speed,
    frame_count_for,
    preset_duration,
    preset_profile,
    read_config,
    resolve_hand,
    session_spec,
    stream_session,
    synthesize_session,
)
from oracles import OutOfRange, phase_of


EQUAL = (0.25, 0.25, 0.25, 0.25)


def flat_profile(mean=100.0, sd=0.0, expertise=Expertise.NOVICE):
    models = {i: ((mean, sd),) * 4 for i in range(1, 13)}
    return UserProfile("u", expertise, models)


def spec_for(duration_s, seed=1, profile=None, hand=Hand.RIGHT):
    return SessionSpec(
        user=profile or flat_profile(sd=5.0),
        hand=hand,
        session_index=1,
        duration_s=duration_s,
        seed=seed,
    )


# --- task phase -------------------------------------------------------------


def test_phase_of_examples():
    assert phase_of(0, 8000, EQUAL) == 1
    assert phase_of(7999, 8000, EQUAL) == 4
    assert phase_of(2000, 8000, EQUAL) == 2  # boundary belongs to the later step


def test_phase_partition_covers_each_step_equally():
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for t in range(8000):
        counts[phase_of(t, 8000, EQUAL)] += 1
    assert counts == {1: 2000, 2: 2000, 3: 2000, 4: 2000}


def test_phase_out_of_range():
    with pytest.raises(OutOfRange):
        phase_of(8000, 8000, EQUAL)
    with pytest.raises(OutOfRange):
        phase_of(-1, 8000, EQUAL)


def test_default_fractions_cover_full_session():
    # the float sum of the task's fractions must not strand late timestamps
    assert phase_of(9999, 10000) == 4


# --- synthesis ---------------------------------------------------------------


def test_frame_count_matches_table_durations():
    assert frame_count_for(8.88) == 444
    assert frame_count_for(15.42) == 771
    assert frame_count_for(8.86) == 443  # float product 442.9999... must still floor to 443
    assert frame_count_for(1.999) == 99


def test_synthesized_counts():
    assert len(synthesize_session(spec_for(8.88))) == 444
    assert len(synthesize_session(spec_for(15.42))) == 771
    assert len(synthesize_session(spec_for(0.02))) == 1


@pytest.mark.parametrize("duration_s", [0.0, -1.0, 0.019, math.nan, math.inf, 1e308])
def test_spec_refuses_a_duration_without_a_whole_frame(duration_s):
    # 1e308 s is finite, but its frame count is not
    with pytest.raises(ValueError, match="^duration_s must be positive, finite and hold one"):
        spec_for(duration_s)


def test_zero_noise_means_exact_amplitudes():
    recording = synthesize_session(spec_for(2.0, profile=flat_profile(mean=100.0, sd=0.0)))
    assert len(recording) == 100
    assert all(f.amplitudes == (100,) * 12 for f in recording.frames)


def test_determinism():
    a = synthesize_session(spec_for(3.0, seed=99))
    b = synthesize_session(spec_for(3.0, seed=99))
    assert a == b
    c = synthesize_session(spec_for(3.0, seed=100))
    assert a != c


def test_synthesized_cadence_is_exact():
    recording = synthesize_session(spec_for(4.0))
    report = validate_cadence(recording.frames, tolerance_ms=0)
    assert report.ok
    assert [f.seq for f in recording.frames] == list(range(200))


def test_amplitudes_clamped_to_u16():
    profile = flat_profile(mean=65535.0, sd=4000.0)
    recording = synthesize_session(spec_for(1.0, profile=profile))
    assert all(0 <= a <= 65535 for f in recording.frames for a in f.amplitudes)


# --- calibration -------------------------------------------------------------


def test_calibrate_examples():
    mean, sd = calibrate_to_cell(98, 1.2, 721)
    assert mean == 98
    assert sd == pytest.approx(1.2 * math.sqrt(721), abs=1e-12)
    assert sd == pytest.approx(32.22, abs=0.005)
    _, sd = calibrate_to_cell(594, 1.8, 721)
    assert sd == pytest.approx(48.33, abs=0.005)
    assert calibrate_to_cell(50, 0, 10) == (50, 0)
    with pytest.raises(ValueError, match="^need n >= 1, got 0$"):
        calibrate_to_cell(98, 1.2, 0)
    with pytest.raises(ValueError):
        calibrate_to_cell(98, -0.1, 10)


def test_calibrate_refuses_a_nan_sem():
    with pytest.raises(ValueError, match="sem_target must be >= 0"):
        calibrate_to_cell(1.0, math.nan, 5)


@pytest.mark.parametrize("mean, sem", [(math.nan, 1.2), (math.inf, 1.2), (-math.inf, 1.2),
                                       (1.0, math.inf)])
def test_calibrate_refuses_non_finite_targets(mean, sem):
    with pytest.raises(ValueError, match=f"^targets must be finite, got mean {mean}, SEM {sem}$"):
        calibrate_to_cell(mean, sem, 5)


def test_calibrated_samples_match_targets():
    import random

    m, s, n = 250.0, 0.8, 10_000
    mean, sd = calibrate_to_cell(m, s, n)
    rng = random.Random(1234)
    values = [rng.gauss(mean, sd) for _ in range(n)]
    sample_mean = sum(values) / n
    var = sum((v - sample_mean) ** 2 for v in values) / (n - 1)
    sample_sem = math.sqrt(var / n)
    assert abs(sample_mean - m) < 4 * s
    assert abs(sample_sem - s) / s < 0.10


# --- presets -----------------------------------------------------------------


def test_preset_profiles():
    expert = preset_profile(Expertise.EXPERT)
    assert expert.handedness == Hand.LEFT
    novice = preset_profile(Expertise.NOVICE)
    assert novice.handedness == Hand.RIGHT
    # session 1 S7 model carries the first-session cell, identically per step
    mean, sd = novice.model_for(7, 1)
    assert mean == 98.0
    assert sd == pytest.approx(1.2 * math.sqrt(721))
    assert all(novice.model_for(7, k) == (mean, sd) for k in range(1, 5))
    # session 10 reaches the last-session cell
    mean10, _ = preset_profile(Expertise.NOVICE, session_index=10).model_for(7, 1)
    assert mean10 == 78.0


def test_preset_durations_and_hand_resolution():
    expert = preset_profile(Expertise.EXPERT)
    assert resolve_hand(expert, "dominant") == Hand.LEFT
    assert resolve_hand(expert, "nondominant") == Hand.RIGHT
    assert preset_duration(Expertise.EXPERT, Hand.LEFT, expert.handedness) == 8.88
    assert preset_duration(Expertise.EXPERT, Hand.RIGHT, expert.handedness) == 10.19
    novice = preset_profile(Expertise.NOVICE)
    assert preset_duration(Expertise.NOVICE, resolve_hand(novice, "dominant"),
                           novice.handedness) == 15.42
    with pytest.raises(ValueError):
        resolve_hand(expert, "both")
    for hand, names in [(Hand.LEFT, [Hand.LEFT, "left", "L"]),
                        (Hand.RIGHT, [Hand.RIGHT, " Right", "r"])]:
        assert all(resolve_hand(expert, name) is hand for name in names)


def test_user_profile_validation():
    with pytest.raises(ValueError):
        UserProfile("u", Expertise.NOVICE, {1: ((1.0, 0.0),) * 4})
    with pytest.raises(ValueError):
        UserProfile("u", Expertise.NOVICE, {i: ((1.0, 0.0),) * 3 for i in range(1, 13)})
    with pytest.raises(ValueError):
        UserProfile("u", Expertise.NOVICE, {i: ((-1.0, 0.0),) * 4 for i in range(1, 13)})


# --- config files ------------------------------------------------------------


def test_load_session_spec(tmp_path):
    path = tmp_path / "session.conf"
    path.write_text(
        "# demo session\n"
        "user = alice\n"
        "expertise = expert\n"
        "hand = dominant\n"
        "session = 3\n"
        "seed = 77\n"
        "sensor7 = 500,10\n"
        "sensor1.step2 = 650,5\n",
        encoding="utf-8",
    )
    spec = session_spec([(path, read_config(path))])
    assert spec.user.user_id == "alice"
    assert spec.user.expertise == Expertise.EXPERT
    assert spec.hand == Hand.LEFT
    assert spec.session_index == 3
    assert spec.seed == 77
    assert spec.duration_s == 8.88  # preset for expert dominant
    assert spec.user.model_for(7, 3) == (500.0, 10.0)
    assert spec.user.model_for(1, 2) == (650.0, 5.0)


def test_load_session_spec_errors(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("user = alice\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expertise"):
        session_spec([(path, read_config(path))])
    path.write_text("expertise = wizard\n", encoding="utf-8")
    with pytest.raises(ValueError, match="wizard"):
        session_spec([(path, read_config(path))])
    path.write_text("expertise = novice\nsensor7 = fast\n", encoding="utf-8")
    with pytest.raises(ValueError, match="mean,sd"):
        session_spec([(path, read_config(path))])
    path.write_text("just some text\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key = value"):
        session_spec([(path, read_config(path))])
    path.write_text("expertise = novice\nseed = 3\nduration = 1\nseed = 4\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: key 'seed' given twice$"):
        session_spec([(path, read_config(path))])


@pytest.mark.parametrize("line", [
    "session = abc", "session = 11", "hand = both", "duration = 0", "duration = nan",
    "seed = -1", "sensor13 = 1,2", "sensor7.step5 = 1,2", "sensor7.step2 = -1,2",
])
def test_load_session_spec_error_names_key_and_file(tmp_path, line):
    path = tmp_path / "bad.conf"
    path.write_text(f"expertise = novice\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        session_spec([(path, read_config(path))])
    assert str(exc.value).startswith(f"{path}: {line}: ")


# --- streaming ---------------------------------------------------------------


def _drain_socket(server, sink):
    conn, _ = server.accept()
    with conn:
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                return
            sink.extend(chunk)


def test_stream_delivers_recording_verbatim():
    recording = synthesize_session(spec_for(1.0, seed=5))
    server = socket.create_server(("127.0.0.1", 0))
    sink = bytearray()
    thread = threading.Thread(target=_drain_socket, args=(server, sink), daemon=True)
    thread.start()
    report = stream_session(recording, server.getsockname()[:2], speed=math.inf)
    thread.join(timeout=5)
    server.close()
    assert report.frames_sent == 50
    frames = [
        decode_frame(bytes(sink[i:i + FRAME_SIZE])) for i in range(0, len(sink), FRAME_SIZE)
    ]
    assert frames == recording.frames


def test_stream_at_max_speed_sends_every_due_frame_per_call(monkeypatch):
    recording = synthesize_session(spec_for(60.0, profile=flat_profile()))  # 3,000 frames
    calls = []
    send = socket.socket.send

    def counted_send(self, *args):
        calls.append(1)
        return send(self, *args)

    monkeypatch.setattr(socket.socket, "send", counted_send)
    server = socket.create_server(("127.0.0.1", 0))
    sink = bytearray()
    thread = threading.Thread(target=_drain_socket, args=(server, sink), daemon=True)
    thread.start()
    with server:
        report = stream_session(recording, server.getsockname()[:2], speed=math.inf)
        thread.join(timeout=5)
    assert report.frames_sent == len(sink) // FRAME_SIZE == 3000
    assert len(calls) < report.frames_sent


def test_stream_pacing_roughly_matches_speed():
    recording = synthesize_session(spec_for(0.52, seed=5))  # 26 frames
    server = socket.create_server(("127.0.0.1", 0))
    sink = bytearray()
    thread = threading.Thread(target=_drain_socket, args=(server, sink), daemon=True)
    thread.start()
    report = stream_session(recording, server.getsockname()[:2], speed=10.0)
    thread.join(timeout=5)
    server.close()
    assert report.frames_sent == 26
    # 25 gaps of 2 ms nominal; generous upper bound for scheduler noise
    assert 0.045 <= report.wall_time_s < 2.0


def test_stream_connection_refused():
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    recording = synthesize_session(spec_for(0.1))
    with pytest.raises(ConnectionRefused):
        stream_session(recording, ("127.0.0.1", port))


def test_stream_rejects_bad_speed():
    recording = synthesize_session(spec_for(0.1))
    with pytest.raises(ValueError):
        stream_session(recording, ("127.0.0.1", 1), speed=0)


@pytest.mark.parametrize("endpoint", [("127.0.0.1", 99999), ("127.0.0.1", -1), ("", 80)])
def test_stream_rejects_bad_endpoint_before_connecting(monkeypatch, endpoint):
    def no_connection(*args, **kwargs):
        raise AssertionError("a connection was opened")

    monkeypatch.setattr(socket, "create_connection", no_connection)
    with pytest.raises(ValueError, match=r"endpoint must be HOST:PORT with port 0\.\.65535"):
        stream_session(synthesize_session(spec_for(0.1)), endpoint)


@pytest.mark.parametrize("session", [0, -1, 11])
def test_one_session_rule_for_spec_and_preset(session):
    for check in (check_session, lambda s: preset_profile(Expertise.NOVICE, s),
                  lambda s: SessionSpec(preset_profile(Expertise.NOVICE), Hand.RIGHT, s, 1.0, 0)):
        with pytest.raises(ValueError, match=r"session_index must be in 1\.\.10"):
            check(session)
    assert [check_session(s) for s in (1, 10)] == [1, 10]


@pytest.mark.parametrize("speed", [0, -1.0, math.nan, -math.inf])
def test_one_speed_rule(speed):
    with pytest.raises(ValueError, match="speed must be positive"):
        check_speed(speed)
    assert check_speed(math.inf) == math.inf


def columns_recording(count):
    """A flat right-hand recording of ``count`` frames, built as columns."""
    frames = Frames(bytes((Hand.RIGHT,)) * count, array("I", range(count)),
                    array("Q", range(0, count * NOMINAL_INTERVAL_MS, NOMINAL_INTERVAL_MS)),
                    array("H", [100]) * (SENSOR_COUNT * count))
    return SessionRecording("u", Expertise.NOVICE, 1, Hand.RIGHT, frames)


@pytest.mark.parametrize("speed, make_recording", [
    (10.0, lambda: synthesize_session(spec_for(60.0, profile=flat_profile()))),
    # 250,000 frames (10.25 MB): more than a loopback connection takes before the reset arrives
    (math.inf, lambda: columns_recording(250_000)),
], ids=["paced", "max"])
def test_stream_connection_lost_reports_sent_count(speed, make_recording):
    import struct

    from gripstream.simulator import ConnectionLost

    recording = make_recording()
    server = socket.create_server(("127.0.0.1", 0))

    def reset_after_first_bytes():
        conn, _ = server.accept()
        # SO_LINGER(1, 0) turns close() into a hard RST, so the sender fails mid-stream
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.recv(4096)
        conn.close()

    thread = threading.Thread(target=reset_after_first_bytes, daemon=True)
    thread.start()
    with server, pytest.raises(ConnectionLost) as exc:
        stream_session(recording, server.getsockname()[:2], speed=speed)
    assert 0 < exc.value.frames_sent < len(recording.frames)
