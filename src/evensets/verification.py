"""Pinned checks: the paper's tables, its four reports and the full sweep.

Each check is a dict {name, expected, actual, pass}, and each report is a
dict {name, checks, pass}.  The reports compare derived certificates with
the paper's fixed tables; the full sweep is the payload of the CLI's
`verify paper` command.  Output is deterministic: fixed check order,
canonical encodings.
"""

from __future__ import annotations

import os

from . import certificates, formulas, gf2, surfaces
from .formulas import STRICT

# chi closed forms at fixed (degree, twist): chi = (a - weight) / 4.
# Twists paired by duality share a line.
CHI_CLOSED_FORMS = (
    (4, 1, 10),
    (5, 2, 20),
    (6, 1, 35),
    (6, 3, 35),
    (6, 2, 32),
    (7, 2, 56),
    (7, 4, 56),
    (8, 3, 84),
    (8, 5, 84),
    (8, 4, 80),
    (10, 6, 160),
)

B2_VALUES = {3: 7, 4: 22, 5: 53, 6: 106}

DIM_BOUND_VALUES = (
    (3, 4, 1),
    (4, 16, 5),
    (5, 31, 5),
    (6, 65, 12),
)


# Strictly even sets realized by known constructions, by degree.
# Long rows are arithmetic progressions of step 8.
KNOWN_STRICT_WEIGHTS = {
    3: (4,),
    4: (8, 16),
    5: (16, 20),
    6: (24, 32, 40),
    8: (48, 64) + tuple(range(72, 129, 8)),
    10: (80, 120) + tuple(range(128, 209, 8)),
}

# Cohomology table for the 16-node quartic: (weight, twist, h0, h1, h2).
QUARTIC_COHOMOLOGY_TABLE = (
    (8, 2, 2, 0, 0),
    (8, 4, 8, 0, 0),
    (16, 2, 0, 0, 0),
    (16, 4, 6, 0, 0),
    (6, 1, 1, 0, 0),
    (6, 3, 5, 0, 0),
    (10, 1, 0, 0, 0),
    (10, 3, 4, 0, 0),
)


def _check(name: str, expected: object, actual: object,
           passed: bool | None = None) -> dict[str, object]:
    """One check; it passes when expected == actual unless a verdict is given."""
    return {"name": name, "expected": expected, "actual": actual,
            "pass": expected == actual if passed is None else passed}


def _report(name: str, checks: list[dict[str, object]]) -> dict[str, object]:
    return {
        "name": name,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _proven_pairs() -> list[tuple[int, str]]:
    return [(s, parity) for parity, degrees in formulas.PROVEN_DEGREES.items()
            for s in degrees]


def verify_theorem_main() -> dict[str, object]:
    """Compare each derived minimal weight with the closed form."""
    checks = []
    for s, parity in _proven_pairs():
        cert = certificates.derive_gaps(s, parity)
        expected = formulas.e_min(s) if parity == STRICT else formulas.e_bar_min(s)
        actual = cert.conclusion.min_weight
        checks.append(_check(f"min-weight degree {s} {parity}", expected, actual,
                             actual == expected and cert.validate()))
    return _report("theorem-main", checks)


def verify_corollary_gaps() -> dict[str, object]:
    """Compare derived excluded weights with the gap table, cell by cell."""
    checks = []
    for (s, parity), expected in sorted(certificates.GAP_TABLE.items(),
                                        key=lambda kv: (kv[0][1], kv[0][0])):
        cert = certificates.derive_gaps(s, parity)
        checks.append(_check(f"gap degree {s} {parity}", list(expected),
                             list(cert.conclusion.excluded_weights)))
    return _report("corollary-gaps", checks)


def verify_concluding_table() -> dict[str, object]:
    """Consistency checks for the realized strictly-even weight table."""
    checks = []
    for s, weights in sorted(KNOWN_STRICT_WEIGHTS.items()):
        modulus = surfaces.strict_weight_modulus(s)
        checks.append(_check(f"degree {s} divisibility",
                             f"all weights divisible by {modulus}", list(weights),
                             all(w % modulus == 0 for w in weights)))
        checks.append(_check(f"degree {s} minimum", formulas.e_min(s), min(weights)))
        gap = certificates.derive_gaps(s, STRICT).conclusion.excluded_weights
        checks.append(_check(f"degree {s} gap avoidance", [],
                             sorted(set(weights) & set(gap))))
    return _report("concluding-table", checks)


def verify_example_cohomology_tables() -> dict[str, object]:
    """chi must equal h0 - h1 + h2 in every quartic cohomology table row."""
    checks = []
    for w, v, h0, h1, h2 in QUARTIC_COHOMOLOGY_TABLE:
        checks.append(_check(f"quartic weight {w} twist {v}", h0 - h1 + h2,
                             certificates._encode(formulas.chi(4, v, w))))
    return _report("quartic-cohomology", checks)


def _code_checks(label: str, code: gf2.LinearCode, n: int, k: int, d: int,
                 distribution: dict[int, int]) -> list[dict[str, object]]:
    return [
        _check(f"{label} length", n, code.length),
        _check(f"{label} dimension", k, code.dimension),
        _check(f"{label} minimum distance", d, gf2.minimum_distance(code)),
        _check(f"{label} weight distribution", distribution,
               gf2.weight_distribution(code)),
        _check(f"{label} parity class", "doubly-even", gf2.classify_parity(code)),
        _check(f"{label} self-orthogonal", True, gf2.is_self_orthogonal(code)),
        _check(f"{label} dual dimension", n - code.dimension,
               gf2.dual_code(code).dimension),
    ]


def run_full_verification(data_dir: str | None = None) -> dict[str, object]:
    """Run every pinned check; data_dir overrides the bundled matrix files."""
    checks: list[dict[str, object]] = []

    kummer = surfaces.kummer_code()
    togliatti = surfaces.togliatti_code()
    checks += _code_checks("kummer", kummer, 16, 5, 8, {0: 1, 8: 30, 16: 1})
    checks += _code_checks("togliatti", togliatti, 31, 5, 16, {0: 1, 16: 31})
    checks.append(_check("cayley weight distribution", {0: 1, 4: 1},
                         gf2.weight_distribution(surfaces.cayley_code())))
    checks.append(_check(
        "togliatti independent construction weight distribution",
        gf2.weight_distribution(togliatti),
        gf2.weight_distribution(surfaces.togliatti_simplex_construction()),
    ))

    if data_dir is None:
        data_dir = os.path.join(os.path.dirname(__file__), "data")
    for label, expected in (("kummer", kummer), ("togliatti", togliatti)):
        parsed = gf2.read_generator_matrix(os.path.join(data_dir, f"{label}.txt"))
        checks.append(_check(f"{label} data file round trip", expected, parsed))

    checks.append(_check("griesmer length k=5 d=8", 16, gf2.griesmer_min_length(5, 8)))
    checks.append(_check("griesmer length k=5 d=16", 31, gf2.griesmer_min_length(5, 16)))
    checks.append(_check("griesmer length k=12 d=32", 69, gf2.griesmer_min_length(12, 32)))
    checks.append(_check("griesmer max dim n=16 d=8", 5, gf2.griesmer_max_dim(16, 8)))
    checks.append(_check("griesmer max dim n=31 d=16", 5, gf2.griesmer_max_dim(31, 16)))

    for s, b2 in B2_VALUES.items():
        checks.append(_check(f"b2 degree {s}", b2, surfaces.b2_resolution(s)))
    for s, mu, bound in DIM_BOUND_VALUES:
        checks.append(_check(
            f"strict dimension bound degree {s}", bound,
            surfaces.dim_lower_bound(surfaces.NodalSurface(s, mu), STRICT)))

    for s, modulus in ((5, 4), (6, 8), (7, 4)):
        checks.append(_check(f"strict weight modulus degree {s}", modulus,
                             surfaces.strict_weight_modulus(s)))
    for s, residue in ((4, 2), (6, 3), (8, 0)):
        checks.append(_check(f"weak weight residue degree {s}", residue,
                             surfaces.weak_weight_residue(s)))

    for s, v, a in CHI_CLOSED_FORMS:
        ok = all((c := formulas.chi(s, v, w)).numerator * 4 == (a - w) * c.denominator
                 for w in range(0, 4 * s * s + 1, 4))
        checks.append(_check(f"chi closed form degree {s} twist {v}", True, ok))

    for report in (
        verify_theorem_main(),
        verify_corollary_gaps(),
        verify_concluding_table(),
        verify_example_cohomology_tables(),
    ):
        checks.append(_check(f"report {report['name']}", True, report["pass"]))

    for s, parity in _proven_pairs():
        checks.append(_check(f"certificate degree {s} {parity} validates", True,
                             certificates.derive_gaps(s, parity).validate()))

    sextic = certificates.sextic_dim_certificate()
    checks.append(_check("sextic dimension certificate validates", True,
                         sextic.validate()))
    checks.append(_check("sextic dimension certificate conclusion", 12,
                         sextic.conclusion))

    return _report("full-verification", certificates._encode(checks))

