"""Exact rational helpers built on :class:`fractions.Fraction`.

All function data in this library is carried by ``Fraction`` (always stored
in lowest terms with positive denominator, which gives the normalization
invariant for free).  Rates, tolerances and entropy values live in ordinary
floats, converted where they are used: ``plmap`` rounds rationals to floats
to order them and reads sampled floats exactly, for example.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ConstructionError, FormatError

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def qstr(x: Fraction) -> str:
    """Decimal-free ``p/q`` form (plain ``p`` when the denominator is 1)."""
    return str(x) if isinstance(x, Fraction) else str(Fraction(x))


def parse_q(value) -> Fraction:
    """Parse a rational: a plain int, or a string ``[+-]p`` or ``[+-]p/q`` of digits
    0-9; no decimal point or exponent (``"1e999999999"`` is a billion digits)."""
    if isinstance(value, int) and not isinstance(value, bool):  # a bool is no rational
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value.strip()):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        raise FormatError(
            f"refusing to parse float {value!r} as exact rational; "
            "pass an int or a 'p/q' string")
    raise FormatError(f"not a rational: {value!r}")


def pow2_floor(x: Fraction) -> Fraction:
    """Largest power of two (2**k, k in Z) that is <= x.  Requires x > 0."""
    if x <= 0:
        raise ConstructionError("pow2_floor needs a positive argument")
    # with k the numerator's bit length minus the denominator's, 2**(k - 1) < x < 2**(k + 1)
    power = Fraction(2) ** (x.numerator.bit_length() - x.denominator.bit_length())
    return power if power <= x else power / 2


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, by Newton iteration."""
    if n < 0 or k < 1:
        raise ConstructionError("iroot needs n >= 0 and k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    # initial guess from bit length, then monotone Newton descent
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def dyadic_pow_ceil(exponent: Fraction, bits: int = 128) -> Fraction:
    """Smallest multiple of 2**-bits that is >= 2**exponent.

    ``exponent`` is an exact rational; the result is exact, so downstream
    invariants (monotonicity, comparisons) can be checked with equality.
    """
    num, den = exponent.numerator, exponent.denominator
    # 2**(num/den) * 2**bits = (2**(num + bits*den))**(1/den)
    shifted = num + bits * den
    if shifted < 0:
        # negative total exponent cannot occur for the schedules used here
        raise ConstructionError("dyadic_pow_ceil exponent too small for bit budget")
    power = 1 << shifted
    r = iroot(power, den)
    if r ** den < power:
        r += 1
    return Fraction(r, 1 << bits)
