"""Independent reference implementations the tests check the package against.

Nothing here may import from gripstream's numeric internals: the CRC is
bitwise (the package's is ``binascii.crc_hqx``), the ANOVA is the
per-observation definitional computation (the package uses balanced
marginal-mean formulas), p-values come from scipy, the F upper tail is
evaluated by arbitrary-precision numerical integration of the density (the
package uses a continued fraction), and session synthesis calls
``random.gauss`` once per sample (the package inlines the Gaussian pairs).
"""

from __future__ import annotations

import math
import random

import mpmath


def crc16_bitwise(data: bytes) -> int:
    """CRC-16/CCITT-FALSE, plain bit-at-a-time evaluation."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
    return crc


def with_hand_byte(wire: bytes, hand: int) -> bytes:
    """A 41-octet wire frame with octet 2 (hand) set and the CRC recomputed bitwise."""
    body = bytearray(wire[:39])
    body[2] = hand
    crc = crc16_bitwise(body)
    return bytes(body) + bytes((crc & 0xFF, crc >> 8))


def brute_force_anova(observations):
    """Definitional two-way sums of squares, one term per observation.

    Returns a dict with ss/df/f per effect plus scipy-based p-values.
    Assumes a balanced full-factorial design (the caller guarantees it).
    """
    from scipy.stats import f as f_dist

    rows = [(a, b, float(v)) for a, b, v in observations]
    levels_a = sorted({a for a, _, _ in rows}, key=str)
    levels_b = sorted({b for _, b, _ in rows}, key=str)
    grand = math.fsum(v for _, _, v in rows) / len(rows)

    def mean_where(pred):
        vals = [v for a, b, v in rows if pred(a, b)]
        return math.fsum(vals) / len(vals)

    mean_a = {a: mean_where(lambda x, y, a=a: x == a) for a in levels_a}
    mean_b = {b: mean_where(lambda x, y, b=b: y == b) for b in levels_b}
    mean_cell = {
        (a, b): mean_where(lambda x, y, a=a, b=b: x == a and y == b)
        for a in levels_a
        for b in levels_b
    }

    ss_a = math.fsum((mean_a[a] - grand) ** 2 for a, b, v in rows)
    ss_b = math.fsum((mean_b[b] - grand) ** 2 for a, b, v in rows)
    ss_ab = math.fsum(
        (mean_cell[(a, b)] - mean_a[a] - mean_b[b] + grand) ** 2 for a, b, v in rows
    )
    ss_err = math.fsum((v - mean_cell[(a, b)]) ** 2 for a, b, v in rows)

    na, nb = len(levels_a), len(levels_b)
    df = {
        "a": na - 1,
        "b": nb - 1,
        "ab": (na - 1) * (nb - 1),
        "err": len(rows) - na * nb,
    }
    ms_err = ss_err / df["err"]
    out = {
        "ss": {"a": ss_a, "b": ss_b, "ab": ss_ab, "err": ss_err},
        "df": df,
        "f": {},
        "p": {},
    }
    for effect, ss in (("a", ss_a), ("b", ss_b), ("ab", ss_ab)):
        if ms_err == 0.0:
            out["f"][effect] = None
            out["p"][effect] = None
            continue
        f_stat = (ss / df[effect]) / ms_err
        out["f"][effect] = f_stat
        out["p"][effect] = float(f_dist.sf(f_stat, df[effect], df["err"]))
    return out


def f_upper_tail_quad(f_stat: float, df1: int, df2: int, dps: int = 30) -> float:
    """P(F > f) by numerical integration of the F density."""
    with mpmath.workdps(dps):
        d1, d2 = mpmath.mpf(df1), mpmath.mpf(df2)

        def pdf(x):
            num = (d1 * x) ** d1 * d2 ** d2 / (d1 * x + d2) ** (d1 + d2)
            return mpmath.sqrt(num) / (x * mpmath.beta(d1 / 2, d2 / 2))

        if f_stat == 0:
            return 1.0
        return float(mpmath.quad(pdf, [f_stat, mpmath.inf]))


def random_frame(rng: random.Random):
    """A structurally valid random GloveFrame (imports locally to stay thin)."""
    from gripstream.protocol import GloveFrame, Hand

    return GloveFrame(
        hand=rng.choice((Hand.LEFT, Hand.RIGHT)),
        seq=rng.randrange(0, 2**32),
        timestamp_ms=rng.randrange(0, 2**64),
        amplitudes=tuple(rng.randrange(0, 65536) for _ in range(12)),
    )


def random_recording(rng: random.Random, max_frames: int = 40):
    """A random but invariant-respecting SessionRecording."""
    from gripstream.protocol import GloveFrame, Hand
    from gripstream.recording import Expertise, SessionRecording

    hand = rng.choice((Hand.LEFT, Hand.RIGHT))
    count = rng.randrange(1, max_frames + 1)
    seq = rng.randrange(0, 1000)
    t = rng.randrange(0, 10_000)
    frames = []
    for _ in range(count):
        frames.append(
            GloveFrame(hand, seq, t, tuple(rng.randrange(0, 65536) for _ in range(12)))
        )
        seq += rng.randrange(1, 4)  # occasional seq holes are legal
        t += 20 * rng.randrange(1, 4)
    return SessionRecording(
        user_id=rng.choice(("ana", "режим", "u-7", "bob,smith", "x")),
        expertise=rng.choice(tuple(Expertise)),
        session_index=rng.randrange(1, 11),
        hand=hand,
        frames=frames,
    )


def synthesize_reference(spec, script=None):
    """The per-sample synthesis loop: one ``rng.gauss`` and one ``model_for`` per sample.

    The package inlines the Gaussian pairs and builds frames unchecked; this
    keeps the plain loop, with ``phase_of`` per frame and the checked
    ``GloveFrame`` constructor, to compare it against.
    """
    from gripstream.protocol import AMPLITUDE_MAX, NOMINAL_INTERVAL_MS, SENSOR_COUNT, GloveFrame
    from gripstream.recording import SessionRecording
    from gripstream.simulator import default_task_script, frame_count_for, phase_of

    script = script or default_task_script()
    count = frame_count_for(spec.duration_s)
    duration_ms = count * NOMINAL_INTERVAL_MS
    rng = random.Random(spec.seed)
    frames = []
    for i in range(count):
        t_ms = i * NOMINAL_INTERVAL_MS
        step = phase_of(t_ms, script, duration_ms)
        amps = []
        for sensor in range(1, SENSOR_COUNT + 1):
            mean, sd = spec.user.model_for(sensor, step)
            amps.append(min(AMPLITUDE_MAX, max(0, round(rng.gauss(mean, sd)))))
        frames.append(GloveFrame(spec.hand, i, t_ms, tuple(amps)))
    return SessionRecording(
        user_id=spec.user.user_id,
        expertise=spec.user.expertise,
        session_index=spec.session_index,
        hand=spec.hand,
        frames=frames,
    )
