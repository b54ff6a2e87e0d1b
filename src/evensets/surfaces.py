"""Nodal-surface constraints and the classical example codes.

Degree and node count determine a Betti number, dimension lower bounds for
the code of strictly/weakly even node sets, and weight divisibility rules.
The three classical codes (Cayley cubic, Kummer quartic, Togliatti quintic)
are provided as built-in generator matrices.

Node indices are 0-based everywhere, including file I/O.
"""

from __future__ import annotations

from . import formulas
from .formulas import WEAK
from .gf2 import LinearCode, _Value

# Maximal node counts by degree; known exactly only up to degree 6.
_MAX_NODES = {1: 0, 2: 1, 3: 4, 4: 16, 5: 31, 6: 65}


def max_nodes(d: int) -> int:
    """Maximal number of nodes on a nodal surface of degree d, for d <= 6."""
    if d not in _MAX_NODES:
        raise ValueError(f"maximal node count is unknown for degree {d}; "
                         f"supported degrees are 1..6")
    return _MAX_NODES[d]


def b2_resolution(s: int) -> int:
    """Second Betti number of the resolved surface: s^3 - 4s^2 + 6s - 2."""
    formulas._require_degree(s)
    return s**3 - 4 * s**2 + 6 * s - 2


class NodalSurface(_Value):
    """A degree-s surface in projective 3-space with node_count nodes."""

    degree: int
    node_count: int

    def __init__(self, degree, node_count):
        formulas._require_degree(degree)
        if node_count < 0:
            raise ValueError(f"node count must be nonnegative, got {node_count}")
        # Beyond the table, Miyaoka's bound (4/9) s (s-1)^2 (Math. Ann. 268, 1984).
        limit = max_nodes(degree) if degree <= 6 else 4 * degree * (degree - 1) ** 2 // 9
        if node_count > limit:
            raise ValueError(f"a degree-{degree} nodal surface has at most {limit} "
                             f"nodes, got {node_count}")
        vars(self).update(degree=degree, node_count=node_count)


def dim_lower_bound(surface: NodalSurface, parity: str) -> int:
    """Lower bound for the code dimension from the isotropy argument.

    strict: ceil(mu - b2/2); weak (the full code including weakly even
    sets): ceil(mu + 1 - b2/2).  Clamped at 0.
    """
    formulas._require_parity(surface.degree, parity)
    b2 = b2_resolution(surface.degree)
    bonus = 1 if parity == WEAK else 0
    # ceil(mu + bonus - b2/2) done in integers: ceil(-b2/2) = -(b2 // 2).
    return max(0, surface.node_count + bonus - b2 // 2)


def strict_weight_modulus(s: int) -> int:
    """Every strictly even set has weight divisible by this: 8 if s even, else 4."""
    return 8 if s % 2 == 0 else 4


def weak_weight_residue(s: int) -> int:
    """Residue r mod 4 of admissible weakly even weights, for even s.

    Derived from integrality of chi at twist 1, not hard-coded: chi(s,1,w)
    is an integer exactly when w/4 cancels its fractional part.
    """
    formulas._require_degree(s)
    formulas._require_parity(s, WEAK)
    base = formulas.chi(s, 1, 0)
    # For even s, 4 * chi(s, 1, 0) is an integer, and r is its residue mod 4.
    quadruple, rest = divmod(4 * base.numerator, base.denominator)
    assert rest == 0
    return quadruple % 4


KUMMER_ROWS = (
    "1111111100000000",
    "1111000011110000",
    "1100110011001100",
    "1010101010101010",
    "1111111111111111",
)

TOGLIATTI_ROWS = (
    "1111111111111111000000000000000",
    "1111111100000000111111110000000",
    "1111000011110000111100001111000",
    "1100110011001100110011001100110",
    "1010101010101010101010101010101",
)

CAYLEY_ROWS = ("1111",)


def kummer_code() -> LinearCode:
    """The [16,5,8] code of the 16-node quartic."""
    return LinearCode.from_strings(KUMMER_ROWS)


def togliatti_code() -> LinearCode:
    """The [31,5,16] code of the 31-node quintic."""
    return LinearCode.from_strings(TOGLIATTI_ROWS)


def togliatti_simplex_construction() -> LinearCode:
    """Independent construction: column j is the 5-bit expansion of j+1.

    Columns range over all distinct nonzero 5-bit vectors, so this must be
    permutation-equivalent to togliatti_code; used as a cross-check on the
    transcribed generator rows.
    """
    masks = [0] * 5
    for j in range(31):
        column = j + 1
        for i in range(5):
            if column >> i & 1:
                masks[i] |= 1 << j
    return LinearCode(31, tuple(masks))


def cayley_code() -> LinearCode:
    """The length-4, dimension-1 code of the 4-node cubic."""
    return LinearCode.from_strings(CAYLEY_ROWS)
