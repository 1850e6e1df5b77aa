import math
import random
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gripstream.ingest import (
    CSV_HEADER,
    FrameStreamDecoder,
    MalformedFile,
    SessionRecorder,
    detect_gaps,
    load_session,
    save_session,
)
from gripstream.protocol import FRAME_SIZE, GloveFrame, Hand, encode_frame
from gripstream.recording import EmptyRecording, Expertise, SessionRecording
from gripstream.simulator import SessionSpec, UserProfile, stream_session, synthesize_session
from oracles import random_recording, with_hand_byte


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


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(damaged_streams(separated=False))
def test_decoder_emits_sent_frames_and_recovers_every_intact_one(case):
    sent, payload, touched, _spans, seed = case
    frames, _decoder = feed_in_chunks(payload, seed)
    seqs = [f.seq for f in frames]
    assert seqs == sorted(set(seqs))
    assert all(0 <= s < len(sent) and f == sent[s] for s, f in zip(seqs, frames))
    assert set(range(len(sent))) - touched <= set(seqs)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
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
    recording = SessionRecording("u", Expertise.NOVICE, 1, Hand.LEFT, [])
    with pytest.raises(EmptyRecording):
        detect_gaps(recording)


# --- persistence -------------------------------------------------------------


def test_round_trip_both_formats(tmp_path):
    original = synth()
    for fmt, name in (("binary", "r.bin"), ("csv", "r.csv")):
        path = tmp_path / name
        save_session(original, path, format=fmt)
        assert load_session(path) == original


def test_round_trip_randomized_recordings(tmp_path):
    rng = random.Random(5150)
    for i in range(20):
        recording = random_recording(rng)
        for fmt in ("binary", "csv"):
            path = tmp_path / f"r{i}.{fmt}"
            save_session(recording, path, format=fmt)
            assert load_session(path) == recording


def test_round_trip_empty_recording_binary(tmp_path):
    recording = SessionRecording("u", Expertise.TRAINED, 2, Hand.RIGHT, [])
    path = tmp_path / "empty.bin"
    save_session(recording, path, format="binary")
    assert load_session(path) == recording


def test_csv_single_frame_layout(tmp_path):
    recording = make_recording(1, amps=None)
    recording.frames[0] = GloveFrame(Hand.LEFT, 0, 0, tuple(range(1, 13)))
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
    save_session(make_recording(2, user_id="u" * 200_000), path, format="csv")
    with pytest.raises(MalformedFile) as exc:
        load_session(path)
    assert exc.value.line == 2


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


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
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


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
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
