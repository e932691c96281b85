"""An isometric sum-norm function system and its infinite-entropy witness.

The model realizes the unit basis of the sum-norm sequence space as smoothed
dyadic sign functions on [0,1]: member i is +-1 on the level-i dyadic cells
(alternating, +1 first) with linear ramps of half-width delta at the cut
points.  Every finite sign pattern is attained on a full plateau cell, which
makes the embedding isometric with exact rational arithmetic.

The witness construction drives entropy up step by step.  Step m picks a
shrinking interval J(m) around the common all-plus point x_0 = 0, places
m+3 sign-pattern points inside it realizing chosen rows of the alternating
sign matrix A_n, and solves A_n alpha = beta in closed form so that the
accumulated sum alternates across J(m) by +-gamma_m.  The gamma schedule
dominates everything later steps can add, so each step certifies an
(m+2)-horseshoe of the single final function; it builds only the members
with a nonzero coefficient, all at levels m+4 and below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import plmap
from .entropy import HorseshoeCertificate, certify
from .errors import ConstructionError, DomainError, ResourceLimitError
from .plmap import (
    IntervalQ,
    PLMap,
    eval_at,
    eval_many,
    linear_combination,
    oscillation,
)
from .rational import pow2_floor


# --- the alternating sign matrix and its closed-form solver --------------------

@dataclass(frozen=True)
class SignMatrix:
    """n x n matrix with entries (-1)^i left of the diagonal, (-1)^(i+1) from it on."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def row(self, i: int) -> tuple[int, ...]:
        """1-based row access."""
        return self.entries[i - 1]

    def apply(self, vec: Sequence[Fraction]) -> list[Fraction]:
        return [sum(a * x for a, x in zip(row, vec)) for row in self.entries]


def build_An(n: int) -> SignMatrix:
    """The sign matrix: row i is (-1)^i for columns j < i, (-1)^(i+1) for j >= i."""
    if n < 2:
        raise DomainError(f"sign matrix needs n >= 2, got {n}")
    entries = tuple(
        tuple((-1) ** i if j < i else (-1) ** (i + 1) for j in range(1, n + 1))
        for i in range(1, n + 1))
    return SignMatrix(n=n, entries=entries)


def solve_An(n: int, beta: Sequence) -> list[Fraction]:
    """Unique alpha with A_n alpha = beta, via the closed form.

    alpha_i = (beta_i + beta_{i+1}) / ((-1)^(i+1) * 2) for i < n and
    alpha_n = (beta_1 + (-1)^(n+1) beta_n) / 2; each entry is an average of
    two beta entries up to sign, so max|alpha| <= max|beta|.
    """
    if len(beta) != n:
        raise DomainError(f"beta must have length {n}, got {len(beta)}")
    b = [Fraction(x) for x in beta]
    alpha = [(b[i - 1] + b[i]) / ((-1) ** (i + 1) * 2) for i in range(1, n)]
    alpha.append((b[0] + (-1) ** (n + 1) * b[n - 1]) / 2)
    return alpha


# --- the smoothed dyadic sign model ----------------------------------------------

@dataclass(frozen=True)
class RademacherModel:
    """N smoothed sign functions on [0,1], one per dyadic level."""

    N: int
    delta: Fraction
    members: tuple[PLMap, ...]


def max_admissible_delta(N: int) -> Fraction:
    """Ramps must stay clear of the level-N cell midpoints: delta < 2^-(N+2)."""
    return Fraction(1, 2 ** (N + 2))


def _check_cap(exponent: int, needs: str) -> None:
    """Raise unless 2^exponent breakpoints fit under the cap; ``needs`` starts the message."""
    cap = plmap.BREAKPOINT_CAP
    if exponent >= cap.bit_length():  # 2^exponent > cap, compared without the count's digits
        # needed: the first power of two above the cap, a lower bound on 2^exponent
        raise ResourceLimitError(f"{needs} 2^{exponent} breakpoints, above the cap of {cap}",
                                 needed=2 ** cap.bit_length(), cap=cap)


def _check_witness_cap(M: int) -> None:
    """Step m's members share its level-(m+4) cuts: sum 2^(m+5) < 2^(M+6) breakpoints."""
    _check_cap(M + 6, f"the {M}-step witness needs up to")


def _sign_member(level: int, delta: Fraction, width: Fraction = Fraction(1)) -> PLMap:
    """+1, -1, ... on the 2^level cells of [0, width], with ramps over the
    cuts (k/2^level +- delta) width.

    Each cut point is made from integers, (k q +- p 2^level) e / (q 2^level c)
    for delta = p/q and width = e/c, with one gcd.
    """
    cells = 2 ** level
    (p, q), (e, c) = delta.as_integer_ratio(), width.as_integer_ratio()
    den, step = q * cells * c, p * cells
    plus, minus = Fraction(1), Fraction(-1)
    xs, ys = [Fraction(0)], [plus]
    for k in range(1, cells):
        xs += (Fraction((k * q - step) * e, den), Fraction((k * q + step) * e, den))
        ys += (plus, minus) if k % 2 else (minus, plus)
    xs.append(width)
    ys.append(minus)  # the last cell has an odd index
    return PLMap(tuple(xs), tuple(ys))


def build_rademacher(N: int, delta) -> RademacherModel:
    """The level-1..N smoothed sign system with transition half-width delta."""
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    delta = Fraction(delta)
    limit = max_admissible_delta(N)
    if not 0 < delta < limit:
        raise DomainError(f"delta must lie in (0, {limit}) for N={N}, got {delta}")
    _check_cap(N + 1, f"the level-{N} sign member needs")
    members = tuple(_sign_member(i, delta) for i in range(1, N + 1))
    return RademacherModel(N=N, delta=delta, members=members)


def sign_point(N: int, pattern: Sequence[int]) -> Fraction:
    """Midpoint of a level-N cell where the level-i member equals pattern_i for all given i.

    Every pattern is realized: the level-N cell with index bits chosen from
    the pattern (bit set where the sign is -1) works; unspecified levels get
    the +1 side.  The empty pattern returns 1/2 by convention.
    """
    if len(pattern) > N:
        raise DomainError(f"pattern longer than the model ({len(pattern)} > {N})")
    if any(s not in (-1, 1) for s in pattern):
        raise DomainError("patterns are lists of +1/-1")
    if not pattern:
        return Fraction(1, 2)
    cell = 0
    for i, s in enumerate(pattern, start=1):
        if s == -1:
            cell += 1 << (N - i)
    return Fraction(2 * cell + 1, 2 ** (N + 1))


# --- the gamma schedule ------------------------------------------------------------

@dataclass(frozen=True)
class GammaSchedule:
    """Positive weights with gamma_m dominating twice the (i+3)-weighted tail."""

    M: int
    gammas: tuple[Fraction, ...]

    def __post_init__(self):
        if self.M < 1 or len(self.gammas) != self.M:
            raise ConstructionError("schedule length must equal M >= 1")
        if any(g <= 0 for g in self.gammas):
            raise ConstructionError("gammas must be positive")
        for m in range(1, self.M + 1):
            if not self.gammas[m - 1] > self.tail(m):
                raise ConstructionError(f"gamma_{m} fails the tail-domination condition")

    def tail(self, m: int) -> Fraction:
        """sum over i in (m, M] of 2 (i+3) gamma_i."""
        return sum((2 * (i + 3) * self.gammas[i - 1]
                    for i in range(m + 1, self.M + 1)), Fraction(0))


def gamma_schedule(M: int, tail_factor) -> GammaSchedule:
    """Backward construction: gamma_M = 1, each earlier term a strict multiple
    of its tail, then normalized so gamma_1 = 1."""
    if M < 1:
        raise DomainError(f"need M >= 1, got {M}")
    tail_factor = Fraction(tail_factor)
    if tail_factor <= 1:
        raise DomainError(f"tail factor must exceed 1, got {tail_factor}")
    gammas = [Fraction(1)] * M
    tail = Fraction(0)
    for m in range(M - 1, 0, -1):
        tail += 2 * (m + 4) * gammas[m]  # the i = m + 1 term of tail(m)
        gammas[m - 1] = tail_factor * tail
    first = gammas[0]
    return GammaSchedule(M=M, gammas=tuple(g / first for g in gammas))


# --- the staged witness --------------------------------------------------------------

@dataclass(frozen=True)
class WitnessStep:
    """Everything step m contributed, plus its validated certificate."""

    m: int
    n_m: int
    epsilon: Fraction
    J: IntervalQ
    window: Fraction
    rows: tuple[int, ...]
    points: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    alpha: tuple[Fraction, ...]
    oscillation_prev: Fraction
    tail: Fraction
    certificate: HorseshoeCertificate


@dataclass(frozen=True)
class WitnessReport:
    """The assembled function with its per-step records and coefficient mass."""

    f: PLMap
    steps: tuple[WitnessStep, ...]
    coefficient_l1_norm: Fraction
    x0: Fraction = Fraction(0)


def ell1_witness(delta, M: int, schedule: GammaSchedule) -> WitnessReport:
    """Run the staged construction for M steps and certify every stage.

    ``delta`` is the relative ramp half-width of step m's (2m+3)-member sign
    model.  Blocks are nested: block m sums alpha_i times the level-i member,
    built only where alpha_i != 0, compressed into the window [0, epsilon_m]
    inside the all-plus plateau of every earlier block, so earlier partial
    sums are exactly constant on J(m) and later blocks contribute exactly
    zero at the step's points (their coefficients sum to zero against a
    constant sign).  g_m = g_{m-1} + block m is kept as one pruned map,
    which holds exactly the domain ends and the kinks of the full sum.
    """
    if M < 1:
        raise DomainError(f"need M >= 1, got {M}")
    if schedule.M < M:
        raise DomainError(f"schedule has {schedule.M} < {M} steps")
    delta = Fraction(delta)
    for m in range(1, M + 1):
        limit = max_admissible_delta(2 * m + 3)
        if not 0 < delta < limit:
            raise DomainError(f"step {m} needs relative delta below {limit}, got {delta}")
    _check_witness_cap(M)

    x0 = l1 = Fraction(0)
    pending: list[dict] = []
    f: PLMap | None = None  # the partial sum g_{m-1}; g_0 = 0
    epsilon_prev = plateau_prev = Fraction(0)

    for m in range(1, M + 1):
        n_m = 2 * m + 3
        gamma_m = schedule.gammas[m - 1]
        tail = schedule.tail(m)
        slack = gamma_m - tail
        bound = slack / 2
        if f is not None:
            bound = min(bound, epsilon_prev / 4, plateau_prev / 2)
        epsilon = pow2_floor(bound)
        J = IntervalQ(x0 - epsilon, x0 + epsilon)

        osc = Fraction(0) if f is None else oscillation(f, J)
        if not epsilon + osc < slack:
            raise ConstructionError(
                f"step {m}: oscillation condition fails "
                f"({epsilon} + {osc} >= {slack})")

        rows = tuple(range(2, m + 5))  # m+3 rows, row 1 stays zero
        matrix = build_An(n_m)
        rel_pos = {r: sign_point(n_m, matrix.row(r)) for r in rows}
        ordered = sorted(rows, key=lambda r: rel_pos[r])
        points = tuple(rel_pos[r] * epsilon for r in ordered)

        beta = [Fraction(0)] * n_m
        for rank, row in enumerate(ordered, start=1):
            beta[row - 1] = Fraction((-1) ** rank) * gamma_m
        alpha = solve_An(n_m, beta)
        if (matrix.apply(alpha) != beta or max(abs(a) for a in alpha) > gamma_m
                or sum(1 for a in alpha if a != 0) > 2 * (m + 3)):
            raise ConstructionError(
                f"step {m}: coefficients fail A alpha = beta, |alpha| <= gamma "
                f"or at most {2 * (m + 3)} nonzeros")

        used = [i for i, a in enumerate(alpha, start=1) if a != 0]  # levels m + 4 and below
        members = [_sign_member(i, delta, epsilon) for i in used]
        head = [] if f is None else [f]
        f = linear_combination([1] * len(head) + [alpha[i - 1] for i in used], head + members)
        l1 += sum(abs(a) for a in alpha)
        epsilon_prev = epsilon
        plateau_prev = epsilon * (Fraction(1, 2 ** n_m) - delta)

        pending.append(dict(
            m=m, n_m=n_m, epsilon=epsilon, J=J, window=epsilon,
            rows=ordered, points=points, beta=tuple(beta), alpha=tuple(alpha),
            oscillation_prev=osc, tail=tail))

    steps: list[WitnessStep] = []
    for record in pending:
        m, pts, epsilon = record["m"], record["points"], record["epsilon"]
        gamma_m = schedule.gammas[m - 1]
        for rank, value in enumerate(eval_many(f, pts), start=1):
            expected_center = Fraction((-1) ** rank) * gamma_m
            if value != expected_center:
                raise ConstructionError(
                    f"step {m}: point value {value} != {expected_center}")
            if rank % 2 == 1 and not value <= x0 - epsilon:
                raise ConstructionError(f"step {m}: odd point not low enough")
            if rank % 2 == 0 and not value >= x0 + epsilon:
                raise ConstructionError(f"step {m}: even point not high enough")
        cert = certify(f, [IntervalQ(pts[i], pts[i + 1]) for i in range(len(pts) - 1)])
        steps.append(WitnessStep(certificate=cert, **record))

    budget = sum(2 * (m + 3) * schedule.gammas[m - 1] for m in range(1, M + 1))
    if l1 > budget:
        raise ConstructionError("coefficient mass exceeded its schedule budget")
    if eval_at(f, x0) != x0:
        raise ConstructionError("witness does not fix x0")
    return WitnessReport(f=f, steps=tuple(steps), coefficient_l1_norm=l1, x0=x0)
