"""Exact arithmetic for contact counts and holomorphic Euler characteristics.

Everything here is pure integer/rational arithmetic; no floating point,
since divisibility tests drive the downstream logic.
"""

from __future__ import annotations

from fractions import Fraction

# Degrees for which the minimal-weight closed forms are established.
PROVEN_STRICT_DEGREES = (3, 4, 5, 6, 7, 8, 10)
PROVEN_WEAK_DEGREES = (2, 4, 6, 8)


class UnprovenDegreeError(ValueError):
    """The minimal-weight formula is not established for this degree."""

    def __init__(self, s: int, proven: tuple[int, ...]):
        super().__init__(
            f"minimal-weight value for degree {s} is conjectural; "
            f"established degrees are {list(proven)}"
        )
        self.degree = s


def _binom3(n: int) -> int:
    # Binomial(n, 3), with the convention that it vanishes for n < 3.
    return n * (n - 1) * (n - 2) // 6 if n >= 3 else 0


class WeakParityError(ValueError):
    """Weakly even sets exist only on surfaces of even degree."""


def _require_degree(s: int) -> None:
    if s < 1:
        raise ValueError(f"surface degree must be at least 1, got {s}")


def _require_even_degree(s: int) -> None:
    if s % 2:
        raise WeakParityError(f"degree {s} is odd; weakly even sets need even degree")


def chi(s: int, v: int, weight: int) -> Fraction:
    """Euler characteristic of the half-twist bundle for (degree, twist, weight).

    chi = (s*v/8)(v - 2s + 8) + binom(s-1, 3) + 1 - weight/4, as an exact
    reduced fraction (denominator always divides 8).  Integrality of this
    value is what constrains admissible weights.  Negative twists are fine:
    the expression is polynomial in v.  The degree s must be at least 1.
    """
    _require_degree(s)
    return Fraction(
        s * v * (v - 2 * s + 8) + 8 * (_binom3(s - 1) + 1) - 2 * weight, 8)


def serre_dual_twist(s: int, v: int) -> int:
    """The twist v' = 2(s-4) - v paired with v by Serre duality.

    Contract: h^2 at twist v equals h^0 at twist v', and chi is invariant
    under v -> v'.
    """
    return 2 * (s - 4) - v


def gallarati_check(m: int, n: int, q: int, t: int, sing_s: int) -> bool:
    """Check the paper's contact relation q*(t - sing_s) = m*n*(m - n).

    Public only: the certificates use reduced_contact_lower_bound instead.
    """
    return q * (t - sing_s) == m * n * (m - n)


def reduced_contact_lower_bound(s: int, v: int) -> int:
    """Weight lower bound s*v*(s-v)/2 for a reduced contact surface.

    The product is always even: if s and v are both odd, s - v is even.
    """
    return s * v * (s - v) // 2


def plane_contact_weight(s: int) -> int:
    """Weight of an even set cut out by a plane: s(s-1)/2."""
    return s * (s - 1) // 2


def quadric_contact_weight(s: int) -> int:
    """Weight of an even set cut out by a reduced quadric."""
    return s * (s - 2) if s % 2 == 0 else (s - 1) ** 2


def unstable_lower_bound(s: int, v: int) -> int:
    """Weight forced by instability in degree v, for 2v in {s, s+1, s+2}.

    At 2v = s the value is exact (s^3/8).  For the other two twists we use
    reduced_contact_lower_bound, the reduced-surface bound s*v*(s-v)/2 the
    per-degree arguments actually invoke (42, 60, 120 at s = 7, 8, 10); see
    the certificate deviation note for the alternative squared variants.
    """
    if 2 * v not in (s, s + 1, s + 2):
        raise ValueError(
            f"instability bound needs 2v in {{s, s+1, s+2}}, got s={s}, v={v}"
        )
    if 2 * v == s:
        return s**3 // 8
    return reduced_contact_lower_bound(s, v)


def e_min(s: int) -> int:
    """Minimal weight of a nonzero strictly even set in degree s.

    s(s-2) for even s, (s-1)^2 for odd s; established only for the degrees
    in PROVEN_STRICT_DEGREES.
    """
    _require_degree(s)
    if s not in PROVEN_STRICT_DEGREES:
        raise UnprovenDegreeError(s, PROVEN_STRICT_DEGREES)
    return quadric_contact_weight(s)


def e_bar_min(s: int) -> int:
    """Minimal weight of a nonzero weakly even set in degree s: s(s-1)/2."""
    _require_degree(s)
    _require_even_degree(s)
    if s not in PROVEN_WEAK_DEGREES:
        raise UnprovenDegreeError(s, PROVEN_WEAK_DEGREES)
    return plane_contact_weight(s)


def smooth_cubic_weight(s: int) -> int:
    """Weight cut out by a smooth cubic: 3s(s-3)/2; weak gap upper endpoint."""
    return 3 * s * (s - 3) // 2


def smooth_quartic_weight(s: int) -> int:
    """Weight cut out by a smooth quartic: 2s(s-4); strict gap upper endpoint."""
    return 2 * s * (s - 4)
