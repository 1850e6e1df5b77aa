"""Set-up: every workload's inputs, made from the run's seed.

The program sees only what is written here: pre-encoded wire bytes for
the load generator (capture) or binary recording files (study, convert).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from gripstream import ingest, protocol, simulator
from gripstream.protocol import FRAME_MAGIC, FRAME_SIZE, Hand
from gripstream.recording import Expertise

# capture: bimanual sessions of every expertise level at its preset task times
LEVELS = (Expertise.EXPERT, Expertise.TRAINED, Expertise.NOVICE)
CAPTURE_SLOTS = 100
FRAMES_PER_EVENT = 100  # one corruption event per 100 frames on a noisy link
# The damage to the noisy links, and the frames sent on them, are seeded
# apart from --seed, so the frames it costs, and with them the failed
# share, are the same on every run.
DAMAGE_SEED = 20210114
_JUNK = bytes(b for b in range(256) if b != FRAME_MAGIC)

# study and convert: a balanced expertise x session design. Every cell holds
# five recordings of each length, so the ANOVA's cells stay equal; lengths
# differ so that session_ms_p90 falls on the longest recordings rather than
# on the slowest repetitions of identical ones.
STUDY_CELLS = ((Expertise.NOVICE, 1), (Expertise.NOVICE, 10),
               (Expertise.EXPERT, 1), (Expertise.EXPERT, 10))
RECORDINGS_PER_CELL = 25
RECORDING_S = (2.0, 3.0, 4.0, 5.0, 6.0)


def derive_seed(seed: int, *parts: int) -> int:
    """A u64 synthesis seed for one recording, from the run seed."""
    value = seed
    for part in parts:
        value = value * 1_000_003 + part
    return value % 2**64


def damage(wire: bytes, rng: random.Random) -> tuple[bytes, list[int], list[int]]:
    """A noisy link: one flipped bit, deleted byte or junk run per 100 frames.

    Events sit in the middle of equal segments, at least five frames apart
    and never in the first or last two frames. Junk runs go between frames
    and hold no 0xA5 byte, so they always take the decoder's resync path.
    Returns the damaged bytes, the indices of the frames the damage touched
    and those of the frames that lost a byte after their magic.
    """
    count = len(wire) // FRAME_SIZE
    events = count // FRAMES_PER_EVENT
    out = bytearray()
    touched, cut = [], []
    done = 0
    for event in range(events):
        lo, hi = event * count // events, (event + 1) * count // events
        k = rng.randrange(lo + 2, hi - 2)
        out += wire[done * FRAME_SIZE:k * FRAME_SIZE]
        frame = bytearray(wire[k * FRAME_SIZE:(k + 1) * FRAME_SIZE])
        kind = rng.choice(("flip", "delete", "junk"))
        if kind == "flip":
            frame[rng.randrange(FRAME_SIZE)] ^= 1 << rng.randrange(8)
            touched.append(k)
        elif kind == "delete":
            pos = rng.randrange(FRAME_SIZE)
            # Deleting a byte of a run of 0xA5 that ends the frame leaves the
            # frame whole, the next frame's magic taking the run's last place.
            while set(frame[pos:]) == {FRAME_MAGIC}:
                pos = rng.randrange(FRAME_SIZE)
            del frame[pos]
            touched.append(k)
            if pos:
                cut.append(k)
        else:
            out += bytes(rng.choices(_JUNK, k=rng.randint(1, 64)))
        out += frame
        done = k + 1
    out += wire[done * FRAME_SIZE:]
    return bytes(out), touched, cut


def slot_layout(slot: int) -> tuple[int, int, Hand]:
    """(level index, session index, noisy hand) of capture slot ``slot``.

    The noisy hand's parity is that of level index + session index - 1, so
    every slot that replays a session puts the same glove on the noisy link.
    """
    return slot % 3, slot // 3 % 10 + 1, Hand(slot % 2)


def _no_lap(step) -> None:
    pass


def capture(seed: int, run_dir: Path, lap=_no_lap) -> dict:
    """Synthesize and encode 30 bimanual sessions; lay out 100 session slots.

    Slot j replays session (level j mod 3, index j div 3 mod 10 + 1) with
    its left glove (j even) or right glove (j odd) on a noisy link damaged
    by its own fixed pattern. A session's noisy glove is the same hand in
    every slot that replays it, and its frames are synthesized from
    DAMAGE_SEED, not from ``seed``: which intact frames the decoder loses
    depends on the bytes around each damage, so the failed share is the
    same for every seed. Writes ``capture.wire`` and ``capture.json`` for
    the generator and the receiver; returns what the checks need. ``lap``
    is called at the end of each step: each glove synthesized and encoded,
    then the files.
    """
    layout = [slot_layout(slot) for slot in range(CAPTURE_SLOTS)]
    noisy = {(li, index, hand) for li, index, hand in layout}
    assert not noisy & {(li, index, Hand(1 - hand)) for li, index, hand in noisy}
    sessions = {}
    for li, level in enumerate(LEVELS):
        for index in range(1, simulator.SESSION_COUNT + 1):
            profile = simulator.preset_profile(level, index)
            for hand in Hand:
                spec = simulator.SessionSpec(
                    profile, hand, index,
                    simulator.preset_duration(level, hand, profile.handedness),
                    derive_seed(DAMAGE_SEED if (li, index, hand) in noisy else seed,
                                li, index, hand))
                recording = simulator.synthesize_session(spec)
                wire = b"".join(map(protocol.encode_frame, recording.frames))
                sessions[(li, index, hand)] = (wire, [f.amplitudes for f in recording.frames])
                lap(("glove", li, index, hand))
    blob = bytearray()
    slots = []
    for slot, (li, index, noisy_hand) in enumerate(layout):
        entry = {"slot": slot, "user": f"glove{slot:03d}", "expertise": LEVELS[li].value,
                 "session": index, "noisy": noisy_hand.name.lower(), "frames": 0, "gloves": {}}
        for hand in Hand:
            wire, amplitudes = sessions[(li, index, hand)]
            glove = {"wire": wire, "amplitudes": amplitudes, "touched": [], "cut": []}
            sent = wire
            if hand == noisy_hand:
                sent, glove["touched"], glove["cut"] = damage(wire, random.Random(DAMAGE_SEED + slot))
            glove["offset"], glove["length"] = len(blob), len(sent)
            blob += sent
            entry["frames"] += len(wire) // FRAME_SIZE
            entry["gloves"][hand.name.lower()] = glove
        slots.append(entry)
    (run_dir / "capture.wire").write_bytes(blob)
    manifest = [{**entry, "gloves": {hand: {"offset": g["offset"], "length": g["length"]}
                                     for hand, g in entry["gloves"].items()}}
                for entry in slots]
    (run_dir / "capture.json").write_text(json.dumps(manifest))
    lap("files")
    return {"slots": slots}


def recordings(seed: int, run_dir: Path, lap=_no_lap) -> dict:
    """Synthesize the 100 recordings of study and convert; save them in binary.

    25 users per (expertise, session) cell, each at the preset model of its
    level and session index, dominant hand; user k of a cell records
    RECORDING_S[k mod 5] seconds. Writes ``inputs/*.bin`` and
    ``recordings.json``; returns the manifest. ``lap`` is called at the end
    of each step: each recording synthesized and saved, then the manifest.
    """
    (run_dir / "inputs").mkdir(exist_ok=True)
    files = []
    for ci, (level, index) in enumerate(STUDY_CELLS):
        for k in range(RECORDINGS_PER_CELL):
            user = f"{level.value}{k:02d}"
            profile = simulator.preset_profile(level, index, user_id=user)
            spec = simulator.SessionSpec(profile, profile.handedness, index,
                                         RECORDING_S[k % len(RECORDING_S)],
                                         derive_seed(seed, ci, k))
            recording = simulator.synthesize_session(spec)
            path = run_dir / "inputs" / f"{user}_s{index}.bin"
            ingest.save_session(recording, path, format="binary")
            files.append({"path": str(path), "user": user, "expertise": level.value,
                          "session": "first" if index == 1 else "last", "session_index": index,
                          "hand": recording.hand.name.lower(), "frames": len(recording)})
            lap(("recording", ci, k))
    manifest = {"files": files}
    (run_dir / "recordings.json").write_text(json.dumps(manifest))
    lap("manifest")
    return manifest
