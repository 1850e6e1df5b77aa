import math
import socket
import threading

import pytest

from gripstream.protocol import FRAME_SIZE, Hand, decode_frame, validate_cadence
from gripstream.recording import Expertise
from gripstream.simulator import (
    ConnectionRefused,
    InvalidN,
    OutOfRange,
    SessionSpec,
    TaskScript,
    TaskStep,
    UserProfile,
    calibrate_to_cell,
    default_task_script,
    frame_count_for,
    load_session_spec,
    phase_of,
    preset_duration,
    preset_profile,
    resolve_hand,
    stream_session,
    synthesize_session,
)


def equal_script():
    return default_task_script(fractions=(0.25, 0.25, 0.25, 0.25))


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


# --- task script / phase ----------------------------------------------------


def test_phase_of_examples():
    script = equal_script()
    assert phase_of(0, script, 8000) == 1
    assert phase_of(7999, script, 8000) == 4
    assert phase_of(2000, script, 8000) == 2  # boundary belongs to the later step


def test_phase_partition_covers_each_step_equally():
    script = equal_script()
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for t in range(8000):
        counts[phase_of(t, script, 8000)] += 1
    assert counts == {1: 2000, 2: 2000, 3: 2000, 4: 2000}


def test_phase_out_of_range():
    script = equal_script()
    with pytest.raises(OutOfRange):
        phase_of(8000, script, 8000)
    with pytest.raises(OutOfRange):
        phase_of(-1, script, 8000)


def test_default_fractions_cover_full_session():
    # the float sum of the default fractions must not strand late timestamps
    script = default_task_script()
    assert phase_of(9999, script, 10000) == 4


def test_task_script_validation():
    steps = [TaskStep(i + 1, f"s{i}", 0.25) for i in range(4)]
    TaskScript(tuple(steps))
    with pytest.raises(ValueError):
        TaskScript(tuple(steps[:3]))
    with pytest.raises(ValueError):
        TaskScript(tuple(steps[:3] + [TaskStep(4, "s4", 0.30)]))  # sums to 1.05
    with pytest.raises(ValueError):
        TaskScript((TaskStep(1, "a", 0.5), TaskStep(2, "b", 0.5),
                    TaskStep(3, "c", -0.5), TaskStep(4, "d", 0.5)))


# --- synthesis ---------------------------------------------------------------


def test_frame_count_matches_table_durations():
    assert frame_count_for(8.88) == 444
    assert frame_count_for(15.42) == 771
    assert frame_count_for(8.86) == 443  # float product 442.9999... must still floor to 443
    assert frame_count_for(1.999) == 99


def test_synthesized_counts():
    assert len(synthesize_session(spec_for(8.88))) == 444
    assert len(synthesize_session(spec_for(15.42))) == 771


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
    with pytest.raises(InvalidN):
        calibrate_to_cell(98, 1.2, 0)
    with pytest.raises(ValueError):
        calibrate_to_cell(98, -0.1, 10)


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
    spec = load_session_spec(path)
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
        load_session_spec(path)
    path.write_text("expertise = wizard\n", encoding="utf-8")
    with pytest.raises(ValueError, match="wizard"):
        load_session_spec(path)
    path.write_text("expertise = novice\nsensor7 = fast\n", encoding="utf-8")
    with pytest.raises(ValueError, match="mean,sd"):
        load_session_spec(path)
    path.write_text("just some text\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key = value"):
        load_session_spec(path)


@pytest.mark.parametrize("line", [
    "session = abc", "session = 11", "hand = both", "duration = 0", "duration = nan",
    "seed = -1", "sensor13 = 1,2", "sensor7.step5 = 1,2", "sensor7.step2 = -1,2",
])
def test_load_session_spec_error_names_key_and_file(tmp_path, line):
    path = tmp_path / "bad.conf"
    path.write_text(f"expertise = novice\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        load_session_spec(path)
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


def test_stream_connection_lost_reports_sent_count():
    import struct

    from gripstream.simulator import ConnectionLost

    recording = synthesize_session(spec_for(60.0, profile=flat_profile()))
    server = socket.create_server(("127.0.0.1", 0))

    def reset_after_first_bytes():
        conn, _ = server.accept()
        # SO_LINGER(1, 0) turns close() into a hard RST, so the sender fails mid-stream
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.recv(4096)
        conn.close()

    thread = threading.Thread(target=reset_after_first_bytes, daemon=True)
    thread.start()
    with pytest.raises(ConnectionLost) as exc:
        stream_session(recording, server.getsockname()[:2], speed=math.inf)
    server.close()
    assert 0 < exc.value.frames_sent < len(recording.frames)
