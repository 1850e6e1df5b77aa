import csv
import io
import math
import random
import socket
import struct
import threading
import time
from array import array
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gripstream import ingest, protocol
from gripstream.ingest import (
    CSV_HEADER,
    FrameStreamDecoder,
    MalformedFile,
    SessionRecorder,
    _csv_text,
    _from_binary,
    _parse_csv,
    _to_binary,
    detect_gaps,
    load_session,
    save_session,
)
from gripstream.protocol import (
    FRAME_SIZE,
    Frames,
    GloveFrame,
    Hand,
    decode_frames,
    encode_frame,
    encode_frames,
    validate_cadence,
)
from gripstream.recording import Expertise, MisplacedFrame, SessionRecording, placed
from gripstream.simulator import SessionSpec, UserProfile, stream_session, synthesize_session
from oracles import (
    FrameStreamDecoderReference,
    check_frames_reference,
    from_binary_reference,
    parse_csv_reference,
    placed_reference,
    random_recording,
    with_hand_byte,
    with_octet,
    write_csv_reference,
)


def make_recording(count=10, hand=Hand.LEFT, start_seq=0, user_id="u1",
                   expertise=Expertise.NOVICE, session_index=1, amps=None):
    frames = [
        GloveFrame(hand, start_seq + i, i * 20, tuple(amps or [7 * i % 65536] * 12))
        for i in range(count)
    ]
    return SessionRecording(user_id, expertise, session_index, hand, frames)


def synth(duration_s=8.88, seed=3, hand=Hand.LEFT):
    models = {i: ((150.0, 30.0),) * 4 for i in range(1, 13)}
    profile = UserProfile("sim", Expertise.EXPERT, models)
    return synthesize_session(
        SessionSpec(user=profile, hand=hand, session_index=1, duration_s=duration_s, seed=seed)
    )


def wire_bytes(recording) -> bytearray:
    return bytearray(b"".join(encode_frame(f) for f in recording.frames))


# --- stream decoder ----------------------------------------------------------


def test_decoder_plain_stream():
    recording = make_recording(25)
    decoder = FrameStreamDecoder()
    frames = decoder.feed(bytes(wire_bytes(recording)))
    assert frames == recording.frames
    assert decoder.errors == 0
    assert decoder.pending == 0


def test_decoder_arbitrary_chunking():
    recording = make_recording(40)
    payload = bytes(wire_bytes(recording))
    rng = random.Random(17)
    decoder = FrameStreamDecoder()
    frames = []
    pos = 0
    while pos < len(payload):
        step = rng.randrange(1, 97)
        frames.extend(decoder.feed(payload[pos:pos + step]))
        pos += step
    assert frames == recording.frames
    assert decoder.errors == 0


def test_decoder_crc_corruption_drops_exactly_one_frame():
    recording = make_recording(30)
    payload = wire_bytes(recording)
    payload[10 * FRAME_SIZE + FRAME_SIZE - 1] ^= 0xFF  # CRC byte of frame 10
    decoder = FrameStreamDecoder()
    frames = decoder.feed(bytes(payload))
    assert decoder.errors == 1
    assert [f.seq for f in frames] == [s for s in range(30) if s != 10]


def test_decoder_magic_corruption_resyncs():
    recording = make_recording(30)
    payload = wire_bytes(recording)
    payload[12 * FRAME_SIZE] ^= 0xFF  # magic byte of frame 12
    decoder = FrameStreamDecoder()
    frames = decoder.feed(bytes(payload))
    assert decoder.errors >= 1
    assert [f.seq for f in frames] == [s for s in range(30) if s != 12]


def test_decoder_random_corruption_loses_at_most_k_frames():
    rng = random.Random(2024)
    for _ in range(20):
        recording = make_recording(60, amps=[rng.randrange(65536)] * 12)
        payload = wire_bytes(recording)
        k = rng.randrange(1, 6)
        hit = rng.sample(range(60), k)
        for frame_idx in hit:
            bit = rng.randrange(FRAME_SIZE * 8)
            payload[frame_idx * FRAME_SIZE + bit // 8] ^= 1 << (bit % 8)
        decoder = FrameStreamDecoder()
        frames = decoder.feed(bytes(payload))
        kept = {f.seq for f in frames}
        assert kept.issuperset(set(range(60)) - set(hit))
        assert len(frames) >= 60 - k
        assert decoder.errors >= 1


def test_decoder_deleted_byte_loses_only_its_frame():
    recording = make_recording(500)
    payload = wire_bytes(recording)
    del payload[5 * FRAME_SIZE + 10]
    decoder = FrameStreamDecoder()
    frames = decoder.feed(bytes(payload))
    assert len(frames) == 499
    assert [f.seq for f in frames] == [s for s in range(500) if s != 5]
    assert decoder.errors == 1


def test_decoder_makes_frames_only_in_bulk(monkeypatch):
    recording = make_recording(30)
    payload = wire_bytes(recording)
    payload[10 * FRAME_SIZE + 20] ^= 4  # one flipped bit in frame 10
    payload = bytes(payload)
    intact = [f for f in recording.frames if f.seq != 10]

    def no_frames_of(frames):
        raise AssertionError("the decoder made frames outside decode_frames")

    monkeypatch.setattr(protocol.Frames, "of", no_frames_of)
    whole, chunked = FrameStreamDecoder(), FrameStreamDecoder()
    assert whole.feed(payload) == intact
    chunks = [payload[i:i + FRAME_SIZE] for i in range(0, len(payload), FRAME_SIZE)]
    assert Frames.concat(map(chunked.feed, chunks)) == intact
    assert whole.errors == chunked.errors == 1


def test_resync_runs_stay_short_on_a_stream_dense_with_damage(monkeypatch):
    """A bulk run after a resync starts at eight frames, so a stream where every other frame
    fails is not decoded in bulk up to its end at each resync."""
    payload = wire_bytes(make_recording(2000))
    for i in range(0, 2000, 2):
        payload[i * FRAME_SIZE + FRAME_SIZE - 1] ^= 0xFF  # the stored CRC of every even frame
    requested = []

    def counted(wire):
        requested.append(len(wire) // FRAME_SIZE)
        return decode_frames(wire)

    monkeypatch.setattr(ingest, "decode_frames", counted)
    frames = FrameStreamDecoder().feed(bytes(payload))
    assert [f.seq for f in frames] == list(range(1, 2000, 2))
    assert sum(requested) <= 8 * 2000


def test_decoder_skips_frame_with_unknown_hand_byte():
    bad, good = (encode_frame(f) for f in make_recording(2).frames)
    decoder = FrameStreamDecoder()
    assert decoder.feed(with_hand_byte(bad, 2) + good) == [make_recording(2).frames[1]]
    assert decoder.errors == 1


DAMAGE = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, FRAME_SIZE * 8 - 1)),
    st.tuples(st.just("delete"), st.integers(0, FRAME_SIZE - 1)),
    st.tuples(st.just("junk"), st.binary(min_size=1, max_size=64)),
)


@st.composite
def damaged_streams(draw, separated: bool):
    """A stream of random frames with damage at some frame slots.

    Slot ``i`` holds one of: a flipped bit in frame ``i``, a deleted byte
    of frame ``i``, or a junk run inserted just before frame ``i``. With
    ``separated``, slots lie at least three frames apart and at least
    three frames before the end, so at least one intact frame follows
    every damage span. Returns the sent frames, the damaged wire bytes,
    the indices of frames whose bytes the damage touches, the number of
    damage spans and a seed for chunking.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    if separated:
        slots = [draw(st.integers(0, 3))]
        for step in draw(st.lists(st.integers(3, 6), max_size=8)):
            slots.append(slots[-1] + step)
        count = slots[-1] + draw(st.integers(3, 6))
    else:
        count = draw(st.integers(2, 30))
        slots = sorted(draw(st.sets(st.integers(0, count - 1), max_size=count)))
    rng = random.Random(seed)
    frames = [  # 0xA5A5 amplitudes plant false magic bytes inside frames
        GloveFrame(Hand.LEFT, seq, seq * 20,
                   tuple(rng.choice((rng.randrange(65536), 0xA5A5)) for _ in range(12)))
        for seq in range(count)
    ]
    clean = b"".join(encode_frame(f) for f in frames)
    damage = {slot: draw(DAMAGE) for slot in slots}
    payload = bytearray()
    touched = set()
    for i, frame in enumerate(frames):
        wire = bytearray(encode_frame(frame))
        kind, arg = damage.get(i, (None, None))
        if kind == "flip":
            wire[arg // 8] ^= 1 << (arg % 8)
            touched.add(i)
        elif kind == "delete":
            del wire[arg]
            # deleting any byte of a run of equal bytes gives the same stream;
            # a run ending in the next frame's magic takes that magic with it
            last = i * FRAME_SIZE + arg
            while last + 1 < len(clean) and clean[last + 1] == clean[last]:
                last += 1
            touched.update((i, last // FRAME_SIZE))
        elif kind == "junk":
            payload += arg
        payload += wire
    return frames, bytes(payload), touched, len(slots), seed


def feed_in_chunks(payload: bytes, seed: int) -> tuple[list, FrameStreamDecoder]:
    rng = random.Random(seed)
    decoder = FrameStreamDecoder()
    frames = []
    pos = 0
    while pos < len(payload):
        step = rng.randrange(1, 97)
        frames.extend(decoder.feed(payload[pos:pos + step]))
        pos += step
    return frames, decoder


@settings(max_examples=300)
@given(damaged_streams(separated=False))
def test_decoder_emits_sent_frames_and_recovers_every_intact_one(case):
    sent, payload, touched, _spans, seed = case
    frames, _decoder = feed_in_chunks(payload, seed)
    seqs = [f.seq for f in frames]
    assert seqs == sorted(set(seqs))
    assert all(0 <= s < len(sent) and f == sent[s] for s, f in zip(seqs, frames))
    assert set(range(len(sent))) - touched <= set(seqs)


@settings(max_examples=300)
@given(damaged_streams(separated=True))
def test_decoder_counts_each_separated_damage_span_once(case):
    _sent, payload, _touched, spans, seed = case
    _frames, decoder = feed_in_chunks(payload, seed)
    assert decoder.errors == spans


# --- recording over sockets --------------------------------------------------


def start_recorder(**kwargs):
    defaults = dict(user_id="u1", expertise=Expertise.NOVICE, session_index=1, timeout=10.0)
    defaults.update(kwargs)
    recorder = SessionRecorder("127.0.0.1", 0, **defaults)
    holder = {}

    def target():
        holder["recordings"] = recorder.run()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return recorder, thread, holder


def send_raw(address, payload: bytes):
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(payload)


def test_record_loopback_equivalence():
    original = synth()  # 444 frames
    recorder, thread, holder = start_recorder(
        user_id=original.user_id,
        expertise=original.expertise,
        session_index=original.session_index,
    )
    stream_session(original, recorder.address, speed=math.inf)
    thread.join(timeout=10)
    (received,) = holder["recordings"]
    assert received == original
    assert received.decode_errors == 0


def test_record_two_gloves_simultaneously():
    left = synth(duration_s=2.0, seed=1, hand=Hand.LEFT)
    right = synth(duration_s=2.0, seed=2, hand=Hand.RIGHT)
    recorder, thread, holder = start_recorder(user_id="sim", expertise=Expertise.EXPERT,
                                              connections=2)
    senders = [
        threading.Thread(target=stream_session, args=(rec, recorder.address, 200.0))
        for rec in (left, right)
    ]
    for s in senders:
        s.start()
    for s in senders:
        s.join(timeout=10)
    thread.join(timeout=10)
    recordings = holder["recordings"]
    assert len(recordings) == 2
    by_hand = {rec.hand: rec for rec in recordings}
    assert by_hand[Hand.LEFT] == left
    assert by_hand[Hand.RIGHT] == right


def test_record_tallies_corrupt_frame():
    original = synth()  # 444 frames
    payload = wire_bytes(original)
    payload[200 * FRAME_SIZE + FRAME_SIZE - 1] ^= 0x01
    recorder, thread, holder = start_recorder()
    send_raw(recorder.address, bytes(payload))
    thread.join(timeout=10)
    (received,) = holder["recordings"]
    assert len(received.frames) == 443
    assert received.decode_errors == 1


def test_record_publishes_nothing_for_frameless_connection():
    original = synth(duration_s=1.0)
    recorder, thread, holder = start_recorder(connections=2)
    send_raw(recorder.address, b"")
    send_raw(recorder.address, bytes(wire_bytes(original)))
    thread.join(timeout=10)
    assert [rec.frames for rec in holder["recordings"]] == [original.frames]


def test_record_unknown_hand_byte_costs_only_its_glove():
    left = synth(duration_s=1.0, seed=1, hand=Hand.LEFT)
    right = synth(duration_s=1.0, seed=2, hand=Hand.RIGHT)
    bad = with_hand_byte(encode_frame(right.frames[0]), 7)
    recorder, thread, holder = start_recorder(connections=2)
    send_raw(recorder.address, bytes(wire_bytes(left)))
    send_raw(recorder.address, bad + bytes(wire_bytes(right)))
    thread.join(timeout=10)
    assert not thread.is_alive()
    first, second = holder["recordings"]
    assert first.frames == left.frames
    assert second.frames == right.frames
    assert second.decode_errors == 1


def test_record_honours_one_overall_deadline():
    recorder = SessionRecorder("127.0.0.1", 0, user_id="u1", expertise=Expertise.NOVICE,
                               session_index=1, connections=3, timeout=1.0)
    sent_at = {Hand.LEFT: [], Hand.RIGHT: []}  # when each frame's sendall returned

    def glove(hand):  # one frame every 50 ms for 3 s; the third glove never connects
        with socket.create_connection(recorder.address, timeout=5) as sock:
            for seq in range(60):
                try:
                    sock.sendall(encode_frame(GloveFrame(hand, seq, seq * 50, (seq,) * 12)))
                except OSError:
                    return
                sent_at[hand].append(time.monotonic())
                time.sleep(0.05)

    senders = [threading.Thread(target=glove, args=(hand,), daemon=True) for hand in Hand]
    start = time.monotonic()
    for sender in senders:
        sender.start()
    recordings = recorder.run()
    elapsed = time.monotonic() - start
    for sender in senders:
        sender.join(timeout=5)
        assert not sender.is_alive()
    assert elapsed < 1.5
    assert sorted(rec.hand for rec in recordings) == [Hand.LEFT, Hand.RIGHT]
    for rec in recordings:
        seqs = [f.seq for f in rec.frames]
        assert seqs == list(range(len(seqs)))
        # every frame sent well before the deadline arrived intact
        assert len(seqs) >= sum(t < start + 0.8 for t in sent_at[rec.hand]) >= 10


def test_a_peer_that_resets_loses_only_its_own_stream():
    recorder, thread, holder = start_recorder(connections=2)
    with socket.create_connection(recorder.address, timeout=5) as sock:
        sock.sendall(encode_frame(GloveFrame(Hand.LEFT, 0, 0, (1,) * 12))[:20])
        # SO_LINGER(1, 0) turns close() into a hard RST: the receiver's recv fails
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    other = make_recording(50, hand=Hand.RIGHT)
    send_raw(recorder.address, encode_frames(other.frames))
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert holder["recordings"] == [other]


def test_bind_failure_on_taken_port():
    from gripstream.ingest import BindFailure

    taken = socket.create_server(("127.0.0.1", 0))
    port = taken.getsockname()[1]
    try:
        with pytest.raises(BindFailure):
            SessionRecorder("127.0.0.1", port, user_id="u", expertise=Expertise.NOVICE,
                            session_index=1)
    finally:
        taken.close()


@pytest.mark.parametrize("setting", [dict(host=""), dict(port=99999), dict(port=-1),
                                     dict(connections=0), dict(connections=-1),
                                     dict(timeout=math.inf), dict(timeout=math.nan),
                                     dict(timeout=-1.0), dict(timeout=0.0),
                                     dict(session_index=-1), dict(session_index=True),
                                     dict(user_id=None), dict(expertise="x")])
def test_recorder_rejects_bad_settings_before_binding(monkeypatch, setting):
    def no_listener(*args, **kwargs):
        raise AssertionError("a listener was bound")

    monkeypatch.setattr(socket, "create_server", no_listener)
    kwargs = dict(host="127.0.0.1", port=0, user_id="u", expertise=Expertise.NOVICE,
                  session_index=1, timeout=1.0) | setting
    with pytest.raises(ValueError, match="endpoint must be|connections must|timeout must|"
                                         "session_index must|user_id must|not a valid Expertise"):
        SessionRecorder(**kwargs)


def test_record_waits_out_a_deadline_longer_than_one_select_call():
    recorder, thread, holder = start_recorder(timeout=1e7)  # 116 days; epoll waits 24.8 at most
    send_raw(recorder.address, encode_frame(GloveFrame(Hand.LEFT, 0, 0, (1,) * 12)))
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert [len(r.frames) for r in holder["recordings"]] == [1]


def test_record_drops_out_of_order_frames():
    hand = Hand.LEFT
    frames = [GloveFrame(hand, s, t, (5,) * 12)
              for s, t in ((0, 0), (1, 20), (5, 100), (3, 60), (6, 120))]
    payload = b"".join(encode_frame(f) for f in frames)
    recorder, thread, holder = start_recorder()
    send_raw(recorder.address, payload)
    thread.join(timeout=10)
    (received,) = holder["recordings"]
    assert [f.seq for f in received.frames] == [0, 1, 5, 6]
    assert received.dropped_frames == 1


# --- gap detection -----------------------------------------------------------


def test_detect_gaps_complete_stream():
    report = detect_gaps(make_recording(444))
    assert report.gaps == ()
    assert report.expected_frames == 444
    assert report.received_frames == 444
    assert report.missing == 0


def test_detect_gaps_constructed_hole():
    frames = [GloveFrame(Hand.LEFT, s, s * 20, (0,) * 12) for s in (0, 1, 2, 5, 6)]
    recording = SessionRecording("u", Expertise.NOVICE, 1, Hand.LEFT, frames)
    report = detect_gaps(recording)
    assert report.gaps == ((2, 2),)
    assert report.expected_frames == 7
    assert report.received_frames == 5


def test_detect_gaps_random_drop_accounts_for_everything():
    rng = random.Random(99)
    keep = sorted(set(rng.sample(range(1, 999), 900)) | {0, 999})
    frames = [GloveFrame(Hand.LEFT, s, s * 20, (0,) * 12) for s in keep]
    recording = SessionRecording("u", Expertise.NOVICE, 1, Hand.LEFT, frames)
    report = detect_gaps(recording)
    assert report.expected_frames == 1000
    assert report.received_frames + report.missing == 1000
    assert report.missing == 1000 - len(keep)


def test_detect_gaps_empty_recording():
    """The recording refuses no frames, so detect_gaps never sees an empty one."""
    with pytest.raises(ValueError, match="^a recording holds at least one frame$"):
        detect_gaps(SessionRecording("u", Expertise.NOVICE, 1, Hand.LEFT, []))


# --- persistence -------------------------------------------------------------


def test_round_trip_both_formats(tmp_path):
    original = synth()
    for fmt, name in (("binary", "r.bin"), ("csv", "r.csv")):
        path = tmp_path / name
        save_session(original, path, format=fmt)
        assert load_session(path) == original


def test_save_session_refuses_an_unknown_format_and_writes_nothing(tmp_path):
    path = tmp_path / "r.bin"
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        save_session(make_recording(2), path, format="xml")
    assert not path.exists()


def test_round_trip_randomized_recordings(tmp_path):
    rng = random.Random(5150)
    for i in range(20):
        recording = random_recording(rng)
        for fmt in ("binary", "csv"):
            path = tmp_path / f"r{i}.{fmt}"
            save_session(recording, path, format=fmt)
            assert load_session(path) == recording


# metadata both formats hold, with ids at the u16 length prefix in 1- and 2-byte characters
STORABLE = dict(
    user_id=st.one_of(st.text(max_size=12), st.sampled_from(("u" * 0xFFFF, "é" * 0x7FFF + "u"))),
    expertise=st.sampled_from((*Expertise, "novice", "expert")),
    session_index=st.sampled_from((0, 1, 2**32 - 1)),
    hand=st.sampled_from((*Hand, 0, 1, True)),
)
# and values no format holds: an id one byte past the prefix, a lone surrogate, no text
UNSTORABLE = dict(
    user_id=st.sampled_from(("u" * 0x10000, "é" * 0x8000, "a\ud800", None, b"u", 7)),
    expertise=st.sampled_from(("EXPERT", "", 0, None)),
    session_index=st.sampled_from((-1, 2**32, 1.5, True, None)),
    hand=st.sampled_from((2, -1, "left", None)),
)


@st.composite
def recording_fields(draw):
    """Storable metadata, with at most one field swapped for a value no format holds."""
    fields = {name: draw(values) for name, values in STORABLE.items()}
    spoiled = draw(st.sampled_from((None, *UNSTORABLE)))
    if spoiled:
        fields[spoiled] = draw(UNSTORABLE[spoiled])
    return fields, spoiled is None


@settings(max_examples=500, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(recording_fields())
def test_every_recording_that_builds_round_trips_in_both_formats(tmp_path, drawn):
    fields, storable = drawn
    hand = fields["hand"] if fields["hand"] in (0, 1) else Hand.LEFT
    frames = [GloveFrame(hand, 3, 60, (9,) * 12)]
    if not storable:
        with pytest.raises(ValueError):
            SessionRecording(**fields, frames=frames)
        return
    recording = SessionRecording(**fields, frames=frames)
    for name in ("r.bin", "r.csv"):
        save_session(recording, tmp_path / name)
        assert load_session(tmp_path / name) == recording


@pytest.mark.parametrize("frames", [[], Frames(b"", array("I"), array("Q"), array("H"))],
                         ids=["list", "columns"])
def test_recording_refuses_an_empty_frame_list(frames):
    """So gap detection, both writers, sensor_series and task_time never see one."""
    with pytest.raises(ValueError, match="^a recording holds at least one frame$"):
        SessionRecording("u", Expertise.TRAINED, 2, Hand.RIGHT, frames)


RECORDING_FIELDS = dict(user_id="v", expertise=Expertise.EXPERT, session_index=9, hand=Hand.RIGHT,
                        frames=[], decode_errors=3, dropped_frames=4)


@pytest.mark.parametrize("name", RECORDING_FIELDS)
def test_recording_fields_cannot_be_assigned(name):
    """What the writers store was checked once, at construction, and stays so."""
    recording = make_recording(3)
    before = replace(recording)
    with pytest.raises(FrozenInstanceError):
        setattr(recording, name, RECORDING_FIELDS[name])
    assert recording == before
    assert (recording.decode_errors, recording.dropped_frames) == (0, 0)


@pytest.mark.parametrize("changes, message", [
    (dict(session_index=-1), "^session_index must be an int in 0..4294967295, got -1$"),
    (dict(user_id=None), "^user_id must be a str of at most 65535 UTF-8 bytes$"),
    (dict(expertise="EXPERT"), "'EXPERT' is not a valid Expertise"),
    (dict(hand=Hand.RIGHT), "^frame seq=0 has hand LEFT$"),
    (dict(frames=[]), "^a recording holds at least one frame$"),
])
def test_replace_goes_through_the_recording_checks(changes, message):
    with pytest.raises(ValueError, match=message):
        replace(make_recording(3), **changes)


def test_recording_converts_only_expertise_hand_and_frames():
    frames = [GloveFrame(Hand.LEFT, 0, 0, (1,) * 12)]
    user_id, session_index = "w", 2**32 - 1
    recording = SessionRecording(user_id, "trained", session_index, 0, frames)
    assert recording.user_id is user_id and recording.session_index is session_index
    assert recording.expertise is Expertise.TRAINED and recording.hand is Hand.LEFT
    assert type(recording.frames) is Frames and recording.frames == frames
    columns = recording.frames
    assert replace(recording).frames is columns  # columns pass through unconverted


@pytest.mark.parametrize("frames, message", [
    (None, "frames must be an iterable of GloveFrame, got NoneType"),
    (5, "frames must be an iterable of GloveFrame, got int"),
    ([1], "frames must be GloveFrames, got int"),
    ([(0,) * 12], "frames must be GloveFrames, got tuple"),
    ("ab", "frames must be GloveFrames, got str"),
])
def test_recording_refuses_what_is_not_glove_frames(frames, message):
    with pytest.raises(ValueError) as exc:
        Frames.of(frames)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        SessionRecording("u", Expertise.NOVICE, 1, Hand.LEFT, frames)
    assert str(exc.value) == message


@pytest.mark.parametrize("hands, seq, timestamps, amplitudes", [
    (b"\0\0", [0, 1], [0, 20], [5] * 12),
    (b"\0", [0, 1], [0, 20], [5] * 24),
    (b"\0\0", [0, 1], [0], [5] * 24),
    (b"\0\0", [0, 1], [0, 20], [5] * 25),
], ids=["amplitudes", "hands", "timestamps", "amplitudes-long"])
def test_recording_refuses_columns_that_disagree_in_length(hands, seq, timestamps, amplitudes):
    """Else the length, the frames read and the rows written would each say another thing.
    Frames refuses them where they are made, so no recording or reader ever sees them."""
    with pytest.raises(ValueError, match="^frames columns disagree in length$"):
        Frames(hands, array("I", seq), array("Q", timestamps), array("H", amplitudes))


@pytest.mark.parametrize("hands, seq, timestamps, amplitudes", [
    (b"\0", [0], [0], [0] * 12),
    (b"\0", array("I", [0]), array("Q", [0]), array("h", [-5] * 12)),
    (b"\0", array("l", [0]), array("Q", [0]), array("H", [5] * 12)),
    (b"\0", array("I", [0]), array("q", [0]), array("H", [5] * 12)),
    ([0], array("I", [0]), array("Q", [0]), array("H", [5] * 12)),
], ids=["lists", "signed-amplitudes", "long-seq", "signed-timestamps", "list-hands"])
def test_recording_refuses_columns_of_other_types(hands, seq, timestamps, amplitudes):
    """Else a writer stores -5 as 65531, or fails on a column it cannot copy."""
    message = "^frames must hold bytes hands and arrays of typecode I, Q and H$"
    with pytest.raises(ValueError, match=message):
        Frames(hands, seq, timestamps, amplitudes)


def test_recording_names_a_hand_code_outside_hand():
    """Such a code is refused when the columns are made, before any recording holds them."""
    with pytest.raises(ValueError, match="^unknown hand code 5$"):
        Frames(b"\0\5", array("I", [0, 1]), array("Q", [0, 20]), array("H", [5] * 24))


def test_recording_refusal_builds_no_frame_object(monkeypatch):
    """The refusal is worded from the seq and hands columns, not from a GloveFrame."""
    L, R = Hand.LEFT, Hand.RIGHT
    cases = [[GloveFrame(h, seq, seq * 20, (seq,) * 12) for h, seq in pairs]
             for pairs in ([(L, 0), (L, 1), (R, 2), (L, 3)], [(L, 0), (L, 4), (L, 2)])]
    wanted = []
    for frames in cases:
        with pytest.raises(MisplacedFrame) as exc:
            check_frames_reference(frames, L)
        wanted.append((str(exc.value), exc.value.index))
    columns = [Frames.of(frames) for frames in cases]

    def no_frame(*args, **kwargs):
        raise AssertionError("a GloveFrame was built")

    monkeypatch.setattr(protocol, "_trusted_frame", no_frame)
    monkeypatch.setattr(GloveFrame, "__post_init__", no_frame)
    got = []
    for frames in columns:
        with pytest.raises(MisplacedFrame) as exc:
            SessionRecording("u", Expertise.NOVICE, 1, L, frames)
        got.append((str(exc.value), exc.value.index))
    assert got == wanted == [("frame seq=2 has hand RIGHT", 2),
                             ("frames not sorted by seq at seq=2", 2)]


def test_binary_file_of_no_frames_is_malformed(tmp_path):
    blob = _to_binary(make_recording(1, user_id="u"))[:-FRAME_SIZE]
    blob = blob[:-4] + struct.pack("<I", 0)  # the frame count
    path = tmp_path / "empty.bin"
    path.write_bytes(blob)
    with pytest.raises(MalformedFile, match="^a recording holds at least one frame") as exc:
        load_session(path)
    assert exc.value.offset == len(blob)


def test_empty_recording_has_no_csv_form(tmp_path):
    path = tmp_path / "empty.csv"
    with pytest.raises(ValueError, match="^a recording holds at least one frame$"):
        save_session(SessionRecording("u", Expertise.TRAINED, 2, Hand.RIGHT, []), path)
    assert not path.exists()


def test_csv_single_frame_layout(tmp_path):
    recording = make_recording(1, amps=range(1, 13))
    path = tmp_path / "one.csv"
    save_session(recording, path, format="csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    row = lines[1].split(",")
    assert row[lines[0].split(",").index("s7")] == "7"


def test_binary_truncation_sweep(tmp_path):
    recording = make_recording(2, user_id="ab")
    path = tmp_path / "t.bin"
    save_session(recording, path, format="binary")
    blob = path.read_bytes()
    for cut in range(len(blob)):
        (tmp_path / "cut.bin").write_bytes(blob[:cut])
        with pytest.raises(MalformedFile):
            load_session(tmp_path / "cut.bin")


def test_binary_rejects_trailing_garbage_and_corruption(tmp_path):
    recording = make_recording(2)
    path = tmp_path / "t.bin"
    save_session(recording, path, format="binary")
    blob = bytearray(path.read_bytes())
    path.write_bytes(bytes(blob) + b"x")
    with pytest.raises(MalformedFile):
        load_session(path)
    blob[-1] ^= 0x40  # inside the last frame's CRC
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedFile) as exc:
        load_session(path)
    assert exc.value.offset is not None


def test_binary_order_and_hand_errors_give_the_frame_offset(tmp_path):
    path = tmp_path / "r.bin"
    save_session(make_recording(5, user_id="u"), path, format="binary")
    blob = path.read_bytes()
    first = len(blob) - 5 * FRAME_SIZE
    frames = [blob[first + i * FRAME_SIZE:first + (i + 1) * FRAME_SIZE] for i in range(5)]
    swapped = frames[:2] + [frames[3], frames[2]] + frames[4:]
    path.write_bytes(blob[:first] + b"".join(swapped))
    with pytest.raises(MalformedFile, match="sorted") as exc:
        load_session(path)
    assert exc.value.offset == first + 3 * FRAME_SIZE == 140
    right = encode_frame(GloveFrame(Hand.RIGHT, 1, 20, (0,) * 12))
    path.write_bytes(blob[:first] + b"".join(frames[:1] + [right] + frames[2:]))
    with pytest.raises(MalformedFile, match="hand") as exc:
        load_session(path)
    assert exc.value.offset == first + FRAME_SIZE


def test_csv_header_must_match_exactly(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER.replace("s7", "sense7") + "\n", encoding="utf-8")
    with pytest.raises(MalformedFile) as exc:
        load_session(path)
    assert exc.value.line == 1


def test_csv_diagnostics_carry_line_and_column(tmp_path):
    recording = make_recording(3)
    path = tmp_path / "r.csv"
    save_session(recording, path, format="csv")
    lines = path.read_text(encoding="utf-8").splitlines()

    broken = lines[:2] + [lines[2].replace("u1", "u2", 1)] + lines[3:]
    path.write_text("\n".join(broken) + "\n", encoding="utf-8")
    with pytest.raises(MalformedFile, match="metadata"):
        load_session(path)

    row = lines[1].split(",")
    row[4] = "abc"  # seq
    path.write_text("\n".join([lines[0], ",".join(row)]) + "\n", encoding="utf-8")
    with pytest.raises(MalformedFile) as exc:
        load_session(path)
    assert exc.value.line == 2
    assert exc.value.column == "seq"

    path.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n", encoding="utf-8")
    with pytest.raises(MalformedFile, match="not increasing"):
        load_session(path)

    path.write_text(lines[0] + "\n", encoding="utf-8")
    with pytest.raises(MalformedFile, match="no data rows"):
        load_session(path)


def test_csv_diagnostics_give_the_file_line_where_the_row_starts(tmp_path):
    path = tmp_path / "r.csv"
    save_session(make_recording(3, user_id="a\nb"), path, format="csv")
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[5] == '"a'  # each row spans two lines; the third starts on line 6
    lines[6] = lines[6].replace(",left,2,", ",left,x,", 1)
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedFile) as exc:
        load_session(path)
    assert exc.value.line == 6
    assert exc.value.column == "seq"


def test_csv_timestamp_diagnostic_names_its_column_once(tmp_path):
    path = tmp_path / "r.csv"
    save_session(make_recording(1), path, format="csv")
    header, row = path.read_text(encoding="utf-8").splitlines()
    fields = row.split(",")
    fields[5] = "abc"  # timestamp_ms
    path.write_text(f"{header}\n{','.join(fields)}\n", encoding="utf-8")
    with pytest.raises(MalformedFile) as exc:
        load_session(path)
    assert str(exc.value) == "'abc' is not an integer (line 2, column 'timestamp_ms')"
    assert exc.value.column == "timestamp_ms"


def test_csv_row_cut_by_a_line_feed_is_malformed(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(f"{CSV_HEADER}\nu\nv,novice,1,left{',7' * 14}\n", encoding="utf-8")
    with pytest.raises(MalformedFile, match="expected 18 fields, got 1") as exc:
        load_session(path)
    assert exc.value.line == 2


def test_csv_lone_carriage_return_is_malformed(tmp_path):
    path = tmp_path / "r.csv"
    save_session(make_recording(2), path, format="csv")
    blob = path.read_bytes().replace(b"u1,", b"u\r1,", 2)
    path.write_bytes(blob)
    with pytest.raises(MalformedFile) as exc:
        load_session(path)
    assert exc.value.line == 2


def test_csv_oversized_field_is_malformed(tmp_path):
    path = tmp_path / "r.csv"
    rows = "".join(f"{'u' * 200_000},novice,1,left,{seq},{seq * 20}" + ",0" * 12 + "\n"
                   for seq in range(2))
    path.write_text(CSV_HEADER + "\n" + rows, encoding="utf-8")
    with pytest.raises(MalformedFile) as exc:
        load_session(path)
    assert exc.value.line == 2


def test_csv_user_id_with_a_lone_carriage_return_round_trips(tmp_path):
    recording = make_recording(3, user_id="a\rb")
    path = tmp_path / "r.csv"
    save_session(recording, path)
    assert path.read_bytes().split(b"\n")[1].startswith(b'"a\rb",')
    assert load_session(path) == recording


def test_plain_csv_file_is_read_without_the_per_row_parser(tmp_path, monkeypatch):
    def per_row_parser(reader):
        raise AssertionError("a plain file went to the per-row parser")

    recording = synth(duration_s=90.0)  # 4,500 rows: more than one block
    path = tmp_path / "r.csv"
    save_session(recording, path)
    monkeypatch.setattr(ingest, "_csv_rows", per_row_parser)
    assert load_session(path) == recording


def test_binary_frame_with_unknown_hand_byte_is_malformed(tmp_path):
    path = tmp_path / "r.bin"
    save_session(make_recording(3), path, format="binary")
    blob = path.read_bytes()
    first = len(blob) - 3 * FRAME_SIZE
    path.write_bytes(blob[:first] + with_hand_byte(blob[first:first + FRAME_SIZE], 2)
                     + blob[first + FRAME_SIZE:])
    with pytest.raises(MalformedFile) as exc:
        load_session(path)
    assert exc.value.offset == first


FILE_DAMAGE = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 2**32 - 1), st.integers(0, 7)),
        st.tuples(st.just("delete"), st.integers(0, 2**32 - 1), st.integers(1, 8)),
        st.tuples(st.just("insert"), st.integers(0, 2**32 - 1), st.one_of(
            st.binary(min_size=1, max_size=8),
            st.sampled_from((b"\r", b"\n", b",", b'"', b"\x00", b"\xa5")),
        )),
    ),
    min_size=1, max_size=4,
)


def damage_file(blob: bytes, damage) -> bytes:
    """Apply bit flips, deletions and insertions at positions taken modulo the length."""
    out = bytearray(blob)
    for kind, where, arg in damage:
        pos = where % (len(out) + 1)
        if kind == "flip" and pos < len(out):
            out[pos] ^= 1 << arg
        elif kind == "delete":
            del out[pos:pos + arg]
        elif kind == "insert":
            out[pos:pos] = arg
    return bytes(out)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), fmt=st.sampled_from(("binary", "csv")),
       damage=FILE_DAMAGE)
def test_damaged_file_loads_or_raises_malformed_file(tmp_path, seed, fmt, damage):
    path = tmp_path / f"r.{fmt}"
    save_session(random_recording(random.Random(seed), max_frames=8), path, format=fmt)
    path.write_bytes(damage_file(path.read_bytes(), damage))
    try:
        load_session(path)
    except MalformedFile:
        pass


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 2**32 - 1),
       hand=st.integers(0, 255))
def test_binary_frame_with_foreign_hand_byte_is_malformed(tmp_path, seed, index, hand):
    recording = random_recording(random.Random(seed), max_frames=8)
    if hand == recording.hand:
        hand = (hand + 1) % 256
    path = tmp_path / "r.bin"
    save_session(recording, path, format="binary")
    blob = path.read_bytes()
    start = len(blob) - FRAME_SIZE * (index % len(recording.frames) + 1)
    path.write_bytes(blob[:start] + with_hand_byte(blob[start:start + FRAME_SIZE], hand)
                     + blob[start + FRAME_SIZE:])
    with pytest.raises(MalformedFile):
        load_session(path)


# --- columnar loaders and decoder against the per-frame references ---------


def assert_agree(function, reference, *args):
    """Both return equal results, or both raise the same class with the same message."""
    try:
        want = reference(*args)
    except Exception as exc:
        with pytest.raises(Exception) as got:
            function(*args)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        assert function(*args) == want


@settings(max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(Hand), st.integers(0, 5)), max_size=8),
       st.sampled_from(Hand))
def test_recording_rule_agrees_with_the_per_frame_reference(pairs, hand):
    frames = [GloveFrame(h, seq, 0, (0,) * 12) for h, seq in pairs]

    def build():
        SessionRecording("u", Expertise.NOVICE, 1, hand, frames)

    def reference():
        check_frames_reference(frames, hand)

    assert_agree(build, reference)


L, R = Hand.LEFT, Hand.RIGHT


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(Hand), st.integers(0, 8)), max_size=20),
       st.sampled_from(Hand))
@example([(L, 0), (R, 1), (L, 2), (R, 3)], L)  # mixed hands
@example([(R, 0), (L, 1), (L, 2)], L)  # a foreign hand first
@example([(L, 0), (L, 1), (L, 1), (L, 2)], L)  # a repeated seq
@example([(L, 0), (L, 5), (L, 3), (L, 4), (L, 6)], L)  # falling seqs
def test_receiver_rule_agrees_with_the_per_frame_reference(pairs, hand):
    frames = [GloveFrame(h, seq, seq * 20, (seq,) * 12) for h, seq in pairs]
    want, dropped = placed_reference(frames, hand)
    kept = placed(Frames.of(frames), hand)
    assert (kept, len(frames) - len(kept)) == (want, dropped)


def test_columnar_paths_build_no_frame_object(tmp_path, monkeypatch):
    """Receive, load and synthesize clean input without one GloveFrame."""
    def no_frame(*args, **kwargs):
        raise AssertionError("a GloveFrame was built")

    monkeypatch.setattr(protocol, "_trusted_frame", no_frame)
    monkeypatch.setattr(GloveFrame, "__post_init__", no_frame)
    monkeypatch.setattr(ingest, "_csv_rows", no_frame)  # the CSV takes the split path
    original = synth()
    recorder, thread, holder = start_recorder(user_id=original.user_id,
                                              expertise=original.expertise)
    send_raw(recorder.address, bytes(encode_frames(original.frames)))
    thread.join(timeout=10)
    (received,) = holder["recordings"]
    assert received == original
    for name in ("r.bin", "r.csv"):
        save_session(original, tmp_path / name)
        assert load_session(tmp_path / name) == original


# a version or hand octet rewritten under a valid CRC
OCTET = st.tuples(st.sampled_from((1, 2)),
                  st.one_of(st.sampled_from((0, 1, 2)), st.integers(0, 255)))
FRAME_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("octet"), st.integers(0, 2**32 - 1), OCTET),
        st.tuples(st.just("swap"), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
        st.tuples(st.just("repeat"), st.integers(0, 2**32 - 1), st.none()),
        # the first frames only, under a header count that says so
        st.tuples(st.just("keep"), st.integers(0, 2**32 - 1), st.none()),
    ),
    max_size=2,
)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), edits=FRAME_EDITS,
       damage=st.one_of(st.just([]), FILE_DAMAGE))
@example(seed=0, edits=[("keep", 0, None)], damage=[])  # a count of 0
def test_binary_loader_agrees_with_the_per_frame_reference(seed, edits, damage):
    recording = random_recording(random.Random(seed), max_frames=40)
    blob = _to_binary(recording)
    first = len(blob) - len(recording) * FRAME_SIZE
    frames = [blob[i:i + FRAME_SIZE] for i in range(first, len(blob), FRAME_SIZE)]
    for kind, a, b in edits:
        if kind == "keep":
            del frames[a % (len(frames) + 1):]
            continue
        if not frames:
            continue
        a = a % len(frames)
        if kind == "octet":
            frames[a] = with_octet(frames[a], *b)
        elif kind == "swap":
            b = b % len(frames)
            frames[a], frames[b] = frames[b], frames[a]
        elif a:
            frames[a] = frames[a - 1]
    blob = blob[:first - 4] + struct.pack("<I", len(frames)) + b"".join(frames)
    blob = damage_file(blob, damage)
    assert_agree(_from_binary, from_binary_reference, blob)


# (column, text): the edges of u16, u32 and u64 and integer spellings int()
# takes or refuses in the integer columns, other spellings in expertise and hand
CSV_FIELDS = st.one_of(
    st.tuples(st.integers(2, 17), st.sampled_from((
        "-1", "65535", "65536", "4294967295", "4294967296", "18446744073709551616"))),
    st.tuples(st.integers(2, 17), st.sampled_from((
        "", " 7", "+7", "7.0", "1_0", "007", "1e3", "\u0663", "x"))),
    # csv.reader ends no line at \x0c or \u2028, which int() strips, and it
    # refuses a field past csv.field_size_limit() that int() takes
    st.tuples(st.integers(2, 17), st.sampled_from((
        "7\x00", "\x0c7", "7\u2028", " " * 131072 + "5"))),
    st.tuples(st.just(0), st.sampled_from(("a\x00b", "a\x0cb", "a\u2028b"))),
    st.tuples(st.just(1), st.sampled_from(("", "x", "NOVICE", "Expert", "trained"))),
    st.tuples(st.just(3), st.sampled_from(("", "x", "LEFT", "right", "Right "))),
)
CSV_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("cell"), st.integers(0, 2**32 - 1), CSV_FIELDS),
        st.tuples(st.just("column"), CSV_FIELDS),
        st.tuples(st.sampled_from(("swap", "repeat", "blank")), st.integers(0, 2**32 - 1),
                  st.integers(0, 2**32 - 1)),
        # CRLF line ends, every field quoted, no LF after the last row
        st.tuples(st.sampled_from(("crlf", "quote", "cut"))),
    ),
    max_size=3,
)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), edits=CSV_EDITS,
       damage=st.one_of(st.just([]), FILE_DAMAGE))
# a session_index on every row that the binary format cannot hold
@example(seed=0, edits=[("column", (2, "-1"))], damage=[])
@example(seed=0, edits=[("column", (2, "4294967296"))], damage=[])
def test_csv_loader_agrees_with_the_per_row_reference(seed, edits, damage):
    text = _csv_text(random_recording(random.Random(seed), max_frames=20))
    header, *rows = csv.reader(io.StringIO(text))
    for kind, *args in edits:
        if not args:
            continue
        if kind in ("cell", "column"):
            *where, (column, text) = args
            for row in [rows[where[0] % len(rows)]] if where else rows:
                if row:
                    row[column] = text
            continue
        a, b = args[0] % len(rows), args[1] % len(rows)
        if kind == "swap":
            rows[a], rows[b] = rows[b], rows[a]
        else:
            rows.insert(a, list(rows[a]) if kind == "repeat" else [])
    terminator = "\r\n" if ("crlf",) in edits else "\n"
    text = io.StringIO()
    csv.writer(text, lineterminator=terminator,
               quoting=csv.QUOTE_ALL if ("quote",) in edits else csv.QUOTE_MINIMAL,
               ).writerows([header, *rows])
    text = text.getvalue()
    if ("cut",) in edits:
        text = text.removesuffix(terminator)
    blob = damage_file(text.encode("utf-8"), damage)
    assert_agree(_parse_csv, parse_csv_reference, blob, "r.csv")


# user_id text: what csv.writer quotes, what it need not, and what a format string would take
USER_IDS = st.text(st.sampled_from(',"\n\r\x00\x0c\u2028 é%abXY'), max_size=8)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), user_id=USER_IDS)
def test_csv_writer_agrees_with_the_csv_writer_reference(tmp_path, seed, user_id):
    recording = replace(random_recording(random.Random(seed), max_frames=8), user_id=user_id)
    # the reference leaves a CR unquoted unless a comma, quote or LF quotes the id anyway
    lone_cr = "\r" in user_id and not set(',"\n') & set(user_id)
    assert (_csv_text(recording) == write_csv_reference(recording)) != lone_cr
    path = tmp_path / "r.csv"
    save_session(recording, path)
    assert load_session(path) == recording  # user_id, expertise, session_index, hand, frames


@st.composite
def chunked_streams(draw):
    """Frames of either hand with sparse damage, and a seed and bound for chunk sizes."""
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(1, 60))
    rng = random.Random(seed)
    damage = {slot: draw(st.one_of(DAMAGE, st.tuples(st.just("octet"), OCTET)))
              for slot in draw(st.lists(st.integers(0, count - 1), max_size=6))}
    payload = bytearray()
    for seq in range(count):
        frame = GloveFrame(rng.choice(tuple(Hand)), seq, seq * 20,
                           tuple(rng.choice((rng.randrange(65536), 0xA5A5)) for _ in range(12)))
        wire = bytearray(encode_frame(frame))
        kind, arg = damage.get(seq, (None, None))
        if kind == "flip":
            wire[arg // 8] ^= 1 << (arg % 8)
        elif kind == "delete":
            del wire[arg]
        elif kind == "junk":
            payload += arg
        elif kind == "octet":
            wire = with_octet(bytes(wire), *arg)
        payload += wire
    return bytes(payload), seed, draw(st.sampled_from((7, 41, 97, 1000, 1 << 20)))


@settings(max_examples=200)
@given(chunked_streams())
def test_decoder_agrees_with_the_window_by_window_reference(case):
    payload, seed, largest = case
    rng = random.Random(seed)
    decoder, reference = FrameStreamDecoder(), FrameStreamDecoderReference()
    parts, pos = [], 0
    while pos < len(payload):
        chunk = payload[pos:pos + rng.randrange(1, largest + 1)]
        pos += len(chunk)
        parts.append(decoder.feed(chunk))
        assert parts[-1] == reference.feed(chunk)
        assert (decoder.errors, decoder.pending) == (reference.errors, reference.pending)
    # decoding does not depend on the chunking: the whole payload at once gives the same
    whole = FrameStreamDecoder()
    assert whole.feed(payload) == Frames.concat(parts)
    assert (whole.errors, whole.pending) == (decoder.errors, decoder.pending)


# what run() may take past its deadline: closing each connection, then placed and
# SessionRecording for each peer's few hundred frames, a few ms here
CLOSE_MARGIN_S = 0.5


@st.composite
def peer_streams(draw):
    """2-3 peers' damaged streams, a seed for chunking and interleaving, and the peer that
    goes silent (None if none does) with the number of its octets it sends first."""
    payloads = [payload for payload, _, _ in draw(st.lists(chunked_streams(), min_size=2,
                                                          max_size=3))]
    silent = draw(st.none() | st.integers(0, len(payloads) - 1))
    cut = None if silent is None else draw(st.integers(0, len(payloads[silent])))
    return payloads, draw(st.integers(0, 2**32 - 1)), silent, cut


def recorded_alone(payload: bytes):
    """What one peer's bytes make on their own: (recording, errors, dropped), else None."""
    decoder = FrameStreamDecoder()
    if not (frames := decoder.feed(payload)):
        return None
    kept = placed(frames, hand := Hand(frames.hands[0]))
    return (SessionRecording("u1", Expertise.NOVICE, 1, hand, kept), decoder.errors,
            len(frames) - len(kept))


THREE_GLOVES = [bytes(encode_frames(make_recording(20, hand).frames))
                for hand in (Hand.LEFT, Hand.RIGHT, Hand.LEFT)]


@settings(max_examples=10, derandomize=True, deadline=None)
@given(peer_streams())
@example((THREE_GLOVES, 1, 1, 5 * FRAME_SIZE + 20))  # the middle peer stops mid-frame
@example((THREE_GLOVES, 2, 2, 0))  # the last peer connects and sends nothing
def test_each_peer_gets_the_recording_of_its_own_bytes(case):
    payloads, seed, silent, cut = case
    sent = [payload if i != silent else payload[:cut] for i, payload in enumerate(payloads)]
    timeout = 10.0 if silent is None else 0.4  # a silent peer holds run() to its deadline
    recorder = SessionRecorder("127.0.0.1", 0, user_id="u1", expertise=Expertise.NOVICE,
                               session_index=1, connections=len(payloads), timeout=timeout)
    socks = []

    def sender():  # one thread sends every peer's chunks, interleaved at random
        rng = random.Random(seed)
        socks.extend(socket.create_connection(recorder.address, timeout=5) for _ in sent)
        rest = list(sent)
        while sending := [i for i, data in enumerate(rest) if data]:
            i = rng.choice(sending)
            step = rng.randrange(1, 97)
            socks[i].sendall(rest[i][:step])
            rest[i] = rest[i][step:]
            if not rest[i] and i != silent:  # the silent peer stays open, sending nothing more
                socks[i].close()

    thread = threading.Thread(target=sender, daemon=True)
    start = time.monotonic()
    thread.start()
    try:
        recordings = recorder.run()
        elapsed = time.monotonic() - start
        thread.join(timeout=5)
        assert not thread.is_alive()
    finally:
        for sock in socks:
            sock.close()
    assert elapsed < timeout + CLOSE_MARGIN_S
    # accept order is connect order, and a peer whose bytes hold no frame makes no recording
    expected = [alone for alone in map(recorded_alone, sent) if alone]
    assert [(r, r.decode_errors, r.dropped_frames) for r in recordings] == expected
