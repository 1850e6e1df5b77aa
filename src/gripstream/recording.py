"""Session recordings: the ordered frames of one user/hand/session plus metadata."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, eq, ge, gt, mul

from .protocol import SENSOR_COUNT, Frames, Hand


class Expertise(str, Enum):
    NOVICE = "novice"
    TRAINED = "trained"
    EXPERT = "expert"


class MisplacedFrame(ValueError):
    """A frame out of seq order or of the wrong hand; ``index`` is its position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class IoFailure(OSError):
    """Reading or writing a session/profile file failed at the OS level."""


def write_file(path, data: bytes | str) -> None:
    """Write ``data`` to ``path``, a str as UTF-8 with no newline translation; IoFailure
    if the OS refuses."""
    try:
        with open(path, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def check_meta(user_id: str, expertise: Expertise,
               session_index: int) -> tuple[str, Expertise, int]:
    """(user_id, Expertise, session_index) if both file formats can hold them, else ValueError:
    exactly a str of at most 65535 UTF-8 bytes, a known expertise, exactly an int in u32 range."""
    # a lone surrogate fails the encode with UnicodeEncodeError, a ValueError
    if type(user_id) is not str or len(user_id.encode("utf-8")) > 0xFFFF:
        raise ValueError("user_id must be a str of at most 65535 UTF-8 bytes")
    if type(session_index) is not int or not 0 <= session_index <= 0xFFFFFFFF:
        raise ValueError(f"session_index must be an int in 0..4294967295, got {session_index!r}")
    return user_id, Expertise(expertise), session_index


def first_misplaced(frames: Frames, hand: Hand) -> int:
    """Index of the first frame not of ``hand`` or not after its predecessor's seq, else len."""
    seq = frames.seq
    return min(len(frames) - len(frames.hands.lstrip(bytes((hand,)))),
               next(compress(count(1), map(ge, seq, islice(seq, 1, None))), len(frames)))


def placed(frames: Frames, hand: Hand) -> Frames:
    """Each frame of ``hand`` whose seq exceeds every seq kept before it: what a recording
    keeps. ``frames`` itself when :func:`first_misplaced` finds none out of place."""
    if first_misplaced(frames, hand) == len(frames):
        return frames
    # seq + 1 for a frame of ``hand``, 0 for another; a dropped frame never raises the max
    rank = list(map(mul, map(add, frames.seq, repeat(1)), map(eq, frames.hands, repeat(hand))))
    keep = list(map(gt, rank, accumulate(rank, max, initial=0)))
    return Frames(bytes(compress(frames.hands, keep)), array("I", compress(frames.seq, keep)),
                  array("Q", compress(frames.timestamp_ms, keep)),
                  array("H", compress(frames.amplitudes, chain.from_iterable(
                      map(repeat, keep, repeat(SENSOR_COUNT))))))


@dataclass(frozen=True)
class SessionRecording:
    """All frames captured from one glove during one task session.

    A recording holds at least one frame, and its metadata passes :func:`check_meta`.
    Frames are ordered by strictly increasing seq (gaps allowed; see
    ingest.detect_gaps) and all belong to ``hand``. ``frames`` may be given
    as any iterable of GloveFrame and is kept as columns (:meth:`Frames.of
    <.protocol.Frames.of>`). The fields cannot be assigned; ``dataclasses.replace``
    builds a checked copy. ``decode_errors`` and ``dropped_frames`` are receive-side
    tallies; they do not take part in equality and are not persisted.
    """

    user_id: str
    expertise: Expertise
    session_index: int
    hand: Hand
    frames: Frames
    decode_errors: int = field(default=0, compare=False)
    dropped_frames: int = field(default=0, compare=False)

    def __post_init__(self):
        _, expertise, _ = check_meta(self.user_id, self.expertise, self.session_index)
        object.__setattr__(self, "expertise", expertise)
        object.__setattr__(self, "hand", Hand(self.hand))
        object.__setattr__(self, "frames", frames := Frames.of(self.frames))
        if not frames:
            raise ValueError("a recording holds at least one frame")
        index = first_misplaced(frames, self.hand)
        if index < len(frames):
            seq, code = frames.seq[index], frames.hands[index]
            if code != self.hand:
                raise MisplacedFrame(f"frame seq={seq} has hand {Hand(code).name}", index)
            raise MisplacedFrame(f"frames not sorted by seq at seq={seq}", index)

    def __len__(self) -> int:
        return len(self.frames)
