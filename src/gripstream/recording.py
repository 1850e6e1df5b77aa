"""Session recordings: the ordered frames of one user/hand/session plus metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .protocol import GloveFrame, Hand


class Expertise(str, Enum):
    NOVICE = "novice"
    TRAINED = "trained"
    EXPERT = "expert"


class EmptyRecording(ValueError):
    """An operation that needs frames got a recording without any."""


class MisplacedFrame(ValueError):
    """A frame out of seq order or of the wrong hand; ``index`` is its position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class IoFailure(OSError):
    """Reading or writing a session/profile file failed at the OS level."""


@dataclass
class SessionRecording:
    """All frames captured from one glove during one task session.

    Frames are ordered by strictly increasing seq (gaps allowed; see
    ingest.detect_gaps) and all belong to ``hand``. ``decode_errors`` and
    ``dropped_frames`` are receive-side tallies; they do not take part in
    equality and are not persisted.
    """

    user_id: str
    expertise: Expertise
    session_index: int
    hand: Hand
    frames: list[GloveFrame]
    decode_errors: int = field(default=0, compare=False)
    dropped_frames: int = field(default=0, compare=False)

    def __post_init__(self):
        if isinstance(self.expertise, str) and not isinstance(self.expertise, Expertise):
            self.expertise = Expertise(self.expertise)
        if not isinstance(self.hand, Hand):
            self.hand = Hand(self.hand)
        last_seq = -1
        for index, frame in enumerate(self.frames):
            if frame.hand != self.hand:
                raise MisplacedFrame(f"frame seq={frame.seq} has hand {frame.hand.name}", index)
            if frame.seq <= last_seq:
                raise MisplacedFrame(f"frames not sorted by seq at seq={frame.seq}", index)
            last_seq = frame.seq

    def __len__(self) -> int:
        return len(self.frames)
