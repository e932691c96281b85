"""Isometric embedding of PL functions on [0,1] into multiscale maps on [-4/3, 4/3].

The transform places a rescaled copy of the input at every dyadic scale
p_n = 2^-n, with amplitude q_n taken from a schedule (geometric, or the
Hoelder choice q_n = p_n^alpha).  Copies sit on I_n = [3/4 p_n, 5/4 p_n]
inside windows J_n = (2/3 p_n, 4/3 p_n) that tile (0, 4/3) and carry zeros
on their shared boundaries; the result is extended evenly to negative
arguments.  Because q_0 = 1, the embedding preserves the sup norm exactly,
and since q_n / p_n grows without bound, every nonzero image carries
arbitrarily large horseshoes: the certificate builder below finds them at
any requested order, given a deep enough truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .entropy import HorseshoeCertificate, certify
from .errors import ConstructionError, DomainError, ResourceLimitError
from .plmap import IntervalQ, PLMap, _floats, sup_norm
from .rational import dyadic_pow_ceil

#: dyadic precision used to rationalize hoelder amplitudes
_HOELDER_BITS = 96

#: most scales a schedule carries (``psi --N``, ``figure1 --N``), for a budget
#: of about 1 s and 128 MB per run on the tent: scale n carries rationals of
#: about 2n bits, so memory grows as N^2; at the cap ``psi`` on the tent took
#: 0.67 s and 66 MB, and ``figure1`` 0.84 s and 37 MB (2-core VM)
TRUNCATION_CAP = 2000


@dataclass(frozen=True)
class ScaleSchedule:
    """Scales p_n = 2^-n with amplitudes q_n, truncated at level N.

    Valid schedules have q_0 = 1, q strictly decreasing, q_n >= p_n, and
    q_n / p_n strictly increasing; both built-in kinds guarantee this.
    """

    kind: str
    ratio_or_alpha: Fraction
    truncation: int
    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.truncation
        if n < 0:
            raise ConstructionError("truncation level must be >= 0")
        if len(self.p) != n + 1 or len(self.q) != n + 1:
            raise ConstructionError("schedule lists must have N + 1 entries")
        if self.q[0] != 1:
            raise ConstructionError("q_0 must be 1")
        for i in range(n + 1):
            if self.q[i] < self.p[i]:
                raise ConstructionError(f"q_{i} < p_{i} violates the schedule")
        for i in range(n):
            if not self.q[i + 1] < self.q[i]:
                raise ConstructionError("q must be strictly decreasing")
            if not self.q[i + 1] / self.p[i + 1] > self.q[i] / self.p[i]:
                raise ConstructionError("q/p must be strictly increasing")


def _check_truncation(truncation: int) -> None:
    """Refuse a truncation above TRUNCATION_CAP before any scale is built."""
    if truncation > TRUNCATION_CAP:
        raise ResourceLimitError(f"truncation {truncation} exceeds the cap of {TRUNCATION_CAP}",
                                 needed=truncation, cap=TRUNCATION_CAP)


def _geometric_amplitude(ratio: Fraction, n: int) -> Fraction:
    return ratio ** n


def _hoelder_amplitude(alpha: Fraction, n: int) -> Fraction:
    return dyadic_pow_ceil(-n * alpha, _HOELDER_BITS)


def geometric_schedule(ratio, truncation: int) -> ScaleSchedule:
    """q_n = ratio^n with 1/2 < ratio < 1."""
    ratio = Fraction(ratio)
    if not Fraction(1, 2) < ratio < 1:
        raise ConstructionError(f"geometric ratio must be in (1/2, 1), got {ratio}")
    _check_truncation(truncation)
    p = tuple(Fraction(1, 2) ** n for n in range(truncation + 1))
    q = tuple(_geometric_amplitude(ratio, n) for n in range(truncation + 1))
    return ScaleSchedule("geometric", ratio, truncation, p, q)


def hoelder_schedule(alpha, truncation: int) -> ScaleSchedule:
    """q_n ~ p_n^alpha with 0 < alpha < 1, rationalized on a fine dyadic grid.

    The amplitudes are the dyadic round-up of 2^(-n*alpha); the rounding is
    far below the gaps between consecutive exact values, so the schedule
    invariants are preserved (and checked) exactly.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ConstructionError(f"alpha must be in (0, 1), got {alpha}")
    _check_truncation(truncation)
    p = tuple(Fraction(1, 2) ** n for n in range(truncation + 1))
    q = tuple(_hoelder_amplitude(alpha, n) for n in range(truncation + 1))
    return ScaleSchedule("hoelder", alpha, truncation, p, q)


def make_schedule(kind: str, parameter, truncation: int) -> ScaleSchedule:
    if kind == "geometric":
        return geometric_schedule(parameter, truncation)
    if kind == "hoelder":
        return hoelder_schedule(parameter, truncation)
    raise ConstructionError(f"unknown schedule kind {kind!r}")


def _require_unit_domain(f: PLMap):
    if f.breakpoints[0] != 0 or f.breakpoints[-1] != 1:
        raise DomainError(
            f"input must live on [0, 1], got [{f.breakpoints[0]}, {f.breakpoints[-1]}]")


def _windows(f: PLMap, sched: ScaleSchedule, scales: range) -> tuple[list, list]:
    """The nodes of psi(f) on the closed windows J_n for the descending,
    consecutive ``scales``, ascending: the zero at 2/3 p_n of the first, then
    per scale the copy on I_n and the zero at 4/3 p_n = 2/3 p_(n-1)."""
    # copies on [3/4, 5/4] p_n between zeros at 2/3 p_n and 4/3 p_n: no node repeats
    xs = [Fraction(2, 3) * sched.p[scales[0]]]
    ys = [Fraction(0)]
    us = [u.as_integer_ratio() for u in f.breakpoints]
    for n in scales:
        (c, e), q_n = sched.p[n].as_integer_ratio(), sched.q[n]
        # p_n (u/2 + 3/4) = c (2a + 3b) / (4 b e) for u = a/b and p_n = c/e: one gcd
        xs += [Fraction(c * (2 * a + 3 * b), 4 * b * e) for a, b in us]
        ys += [q_n * v for v in f.values]
        xs.append(Fraction(4 * c, 3 * e))
        ys.append(Fraction(0))
    return xs, ys


def psi(f: PLMap, sched: ScaleSchedule) -> PLMap:
    """The multiscale embedding of f under the given schedule.

    On I_n the output is q_n * f(2y/p_n - 3/2); it vanishes on every window
    boundary 2/3 p_n, at and beyond +-4/3, and on the truncated core
    [-2/3 p_N, 2/3 p_N]; the gaps interpolate linearly and the whole map is
    even.
    """
    _require_unit_domain(f)
    xs, ys = _windows(f, sched, range(sched.truncation, -1, -1))
    # even reflection: every node lies right of 0, and negating a float is
    # exact, so the mirror image's floats are the negated ones
    fx, fy = _floats(xs), _floats(ys)
    return PLMap((*(-x for x in reversed(xs)), *xs), (*reversed(ys), *ys),
                 np.concatenate([-fx[::-1], fx]), np.concatenate([fy[::-1], fy]))


def minimal_truncation(f_norm: Fraction, sched_kind: str, parameter: Fraction,
                       d: int) -> int:
    """Smallest n with q_n * f_norm > p_(n-d), by direct scan."""
    amplitude = _geometric_amplitude if sched_kind == "geometric" else _hoelder_amplitude
    n = max(d - 1, 0)
    while n < 10_000:
        if amplitude(Fraction(parameter), n) * f_norm > Fraction(2) ** (d - n):
            return n
        n += 1
    raise ConstructionError("no admissible scale below 10000")  # pragma: no cover


def psi_horseshoe(f: PLMap, sched: ScaleSchedule, d: int) -> HorseshoeCertificate:
    """A certified d-horseshoe of psi(f) for nonzero f.

    Finds the first scale n with q_n * ||f|| > p_(n-d); the closed windows
    J_(n-d+1) ... J_n (mirrored when only the negative extreme attains the
    norm) then all map over each other.  The certificate is validated
    exactly before being returned, on psi(f) restricted to the windows'
    hull [2/3 p_n, 4/3 p_(n-d+1)]: the images of the windows read nothing
    else, so the check is the one on the whole embedding.
    """
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    _require_unit_domain(f)
    norm = sup_norm(f)
    if norm == 0:
        raise DomainError("the zero map admits no horseshoe")
    chosen = minimal_truncation(norm, sched.kind, sched.ratio_or_alpha, d)
    if chosen > sched.truncation:
        raise DomainError(
            f"truncation N={sched.truncation} too small for a {d}-horseshoe; "
            f"need N >= {chosen}")
    positive_side = max(f.values) >= -min(f.values)
    intervals = []
    for i in range(chosen - d + 1, chosen + 1):
        lo = Fraction(2, 3) * sched.p[i]
        hi = Fraction(4, 3) * sched.p[i]
        intervals.append(IntervalQ(lo, hi) if positive_side else IntervalQ(-hi, -lo))
    intervals.sort(key=lambda iv: iv.lo)
    xs, ys = _windows(f, sched, range(chosen, chosen - d, -1))
    if positive_side:
        return certify(PLMap(tuple(xs), tuple(ys)), intervals)
    return certify(PLMap(tuple(-x for x in reversed(xs)), tuple(reversed(ys))), intervals)

