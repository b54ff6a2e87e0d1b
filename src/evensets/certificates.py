"""Machine-checkable certificates for the per-degree minimal-weight arguments.

A certificate is an ordered list of steps.  Arithmetic steps (divisibility
lattices, chi evaluations, duality twists, instability bounds, Griesmer
sums) are re-evaluated from their recorded inputs by check_step; geometric
facts that are not arithmetic (duality identifications, vanishing,
stability dichotomies) enter as `hypothesis` steps stating the assumed
fact in plain words.  A certificate validates iff every step validates.

derive_gaps replays the argument for one (degree, parity) pair and returns
the certificate together with a gap report: the minimal weight and the
excluded weights strictly between it and the smooth-contact endpoint.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import formulas, gf2, surfaces
from .formulas import STRICT, WEAK

SCHEMA_VERSION = "1"

class Step(gf2._Value):
    rule: str
    inputs: dict[str, object]
    asserted_output: object
    note: str

    def __init__(self, rule, inputs, asserted_output, note=""):
        vars(self).update(rule=rule, inputs=inputs, asserted_output=asserted_output, note=note)


class GapReport(gf2._Value):
    degree: int
    parity: str
    min_weight: int
    excluded_weights: tuple[int, ...]
    upper_endpoint: int

    def __init__(self, degree, parity, min_weight, excluded_weights, upper_endpoint):
        vars(self).update(degree=degree, parity=parity, min_weight=min_weight,
                          excluded_weights=excluded_weights, upper_endpoint=upper_endpoint)


class ProofCertificate(gf2._Value):
    degree: int
    parity: str
    steps: tuple[Step, ...]
    conclusion: object  # GapReport for gap certificates, an integer for dimension ones

    def __init__(self, degree, parity, steps, conclusion):
        vars(self).update(degree=degree, parity=parity, steps=steps, conclusion=conclusion)

    def validate(self) -> bool:
        return not self.invalid_steps()

    def invalid_steps(self) -> list[int]:
        return [i for i, s in enumerate(self.steps) if not check_step(s)]

    def payload(self) -> dict[str, object]:
        """The report's fields before encoding: the schema version and vars(self)."""
        return {"schema_version": SCHEMA_VERSION, **vars(self)}

    def to_dict(self) -> dict[str, object]:
        return _encode(self.payload())


def _encode(value: object) -> object:
    """JSON-ready copy of a value, with a deterministic layout.

    Walks lists, tuples and dicts, and applies _plain to any other value but
    None, an int or a str.  Dicts are sorted by their original keys, which
    become strings, so the text report keeps numeric keys in numeric order
    while --json re-sorts every key as a string ("0", "16", "8").
    """
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in sorted(value.items())}
    return _encode(_plain(value))


def _plain(value: object) -> object:
    """One level of the JSON form of a value JSON has no type for.

    A Fraction becomes an int when integral, else "p/q"; a LinearCode its
    length and basis bit strings; any other gf2._Value record its field dict.  Any
    other type raises TypeError.  _encode and the --json writer apply it.
    """
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, gf2.LinearCode):
        return {"length": value.length,
                "rows": [gf2.bit_string(value.length, m) for m in value.rows]}
    if isinstance(value, gf2._Value):
        return vars(value)
    raise TypeError(f"no JSON form for type {type(value).__name__}")


def _weight_rule(s: int, parity: str) -> tuple[int, int]:
    """(modulus, residue): nonzero weights of this parity are residue mod modulus."""
    if parity == STRICT:
        return surfaces.strict_weight_modulus(s), 0
    return 4, surfaces.weak_weight_residue(s)


def _admissible_weights(s: int, parity: str, lower: int, upper: int) -> list[int]:
    modulus, residue = _weight_rule(s, parity)
    return list(range(lower + (residue - lower) % modulus, upper + 1, modulus))


def _h0_lower_bound(inp: dict[str, object], out: object) -> bool:
    chi_value = Fraction(inp["chi"])
    if inp.get("h2_equals_h0"):
        # chi = 2*h0 - h1 <= 2*h0, so h0 >= ceil(chi / 2).
        return out == math.ceil(chi_value / 2)
    return Fraction(out) == chi_value - inp["h2_bound"]


def _griesmer(inp: dict[str, object], out: object) -> bool:
    length = gf2.griesmer_min_length(inp["k"], inp["d"])
    budget = inp.get("length_budget")
    return out == length and (budget is None or length > budget)


def _cited(inp: dict[str, object], out: object) -> bool:
    return True


# One checker per rule: checker(inputs, asserted_output) -> bool.  Checkers
# reach their callees as module attributes (formulas.chi) at call time, so a
# function replaced on its module is replaced here too.  Cited rules record
# geometric facts or noted discrepancies and are always valid.
CHECKERS = {
    "hypothesis": _cited,
    "deviation-note": _cited,
    "divisibility": lambda inp, out: list(out) == _admissible_weights(
        inp["degree"], inp["parity"], inp["lower"], inp["upper"]),
    "chi-eval": lambda inp, out: formulas.chi(
        inp["degree"], inp["twist"], inp["weight"]) == Fraction(out),
    "serre-dual": lambda inp, out: formulas.serre_dual_twist(
        inp["degree"], inp["twist"]) == out,
    "h0-lower-bound": _h0_lower_bound,
    # The bound must equal the output and exceed every weight considered.
    "instability-exclusion": lambda inp, out: out == formulas.unstable_lower_bound(
        inp["degree"], inp["twist"]) > inp["weight_cap"],
    "plane-conclusion": lambda inp, out: out == formulas.plane_contact_weight(
        inp["degree"]),
    "quadric-conclusion": lambda inp, out: out == formulas.quadric_contact_weight(
        inp["degree"]),
    "dimension-bound": lambda inp, out: out == surfaces.dim_lower_bound(
        surfaces.NodalSurface(inp["degree"], inp["nodes"]), inp["parity"]),
    "griesmer": _griesmer,
    # A nonzero kernel word would be disjoint from the projected word,
    # making their sum heavier than any admissible weight.
    "projection-kernel": lambda inp, out: (
        inp["disjoint_sum"] > inp["max_admissible"] and out == 0),
    "self-orthogonality-bound": lambda inp, out: out == inp["length"] // 2,
    "conclusion": lambda inp, out: inp["lower"] == inp["upper"] == out,
}


def check_step(step: Step) -> bool:
    """Re-evaluate one step from its recorded inputs with its rule's checker."""
    checker = CHECKERS.get(step.rule)
    if checker is None:
        raise ValueError(f"unknown certificate rule {step.rule!r}")
    return checker(step.inputs, step.asserted_output)


class _Case(gf2._Value):
    twist: int               # twist at which the forcing chi is evaluated
    h2_mode: str             # "vanishes" | "equals-h0" | "at-most-one"
    cap: int                 # largest admissible weight the argument handles
    instability: tuple[int, int] | None   # (twist, bound)
    notes: tuple[str, ...]

    def __init__(self, twist, h2_mode, cap, instability=None, notes=()):
        vars(self).update(twist=twist, h2_mode=h2_mode, cap=cap, instability=instability, notes=notes)


_CASES = {
    (3, STRICT): _Case(twist=2, h2_mode="vanishes", cap=4),
    (4, STRICT): _Case(twist=2, h2_mode="vanishes", cap=16, notes=(
        "the source argument evaluates chi at an odd trial weight where the "
        "value is non-integral; the even-weight evaluation one below is used "
        "instead and recorded here",
    )),
    (5, STRICT): _Case(twist=2, h2_mode="vanishes", cap=16),
    (6, STRICT): _Case(twist=2, h2_mode="equals-h0", cap=24),
    (7, STRICT): _Case(twist=4, h2_mode="at-most-one", cap=40,
                       instability=(4, 42), notes=(
                           "the source argument caps trial weights at 44, but the checked "
                           "instability bound evaluates to 42; 42 is used (the excluded "
                           "weight 40 lies below either cap)",
                       )),
    (8, STRICT): _Case(twist=4, h2_mode="equals-h0", cap=56, instability=(4, 64)),
    (10, STRICT): _Case(twist=6, h2_mode="equals-h0", cap=112, instability=(6, 120)),
    (4, WEAK): _Case(twist=1, h2_mode="vanishes", cap=6),
    (6, WEAK): _Case(twist=3, h2_mode="at-most-one", cap=23, instability=(3, 27)),
    (8, WEAK): _Case(twist=3, h2_mode="at-most-one", cap=56, instability=(5, 60)),
}

_H2_HYPOTHESES = {
    "vanishes": "the second cohomology group at this twist vanishes (dual "
                "twist is negative) and the first is assumed nonnegative only",
    "equals-h0": "the twist is self-dual, so second and zeroth cohomology "
                 "dimensions agree",
    "at-most-one": "at most one surface of the lower contact degree can cut "
                   "out the set, bounding the dual second cohomology by 1",
}


def derive_gaps(s: int, parity: str) -> ProofCertificate:
    """Replay the minimal-weight argument for one (degree, parity) pair."""
    formulas._require_proven(s, parity)
    if (s, parity) == (2, WEAK):
        return _weak_degree_two_certificate()
    case = _CASES[(s, parity)]

    steps: list[Step] = []
    modulus, residue = _weight_rule(s, parity)
    if parity == STRICT:
        min_weight = formulas.quadric_contact_weight(s)
        upper = formulas.smooth_quartic_weight(s)
        conclusion_rule = "quadric-conclusion"
    else:
        min_weight = formulas.plane_contact_weight(s)
        upper = formulas.smooth_cubic_weight(s)
        conclusion_rule = "plane-conclusion"

    lower = residue if residue else modulus
    admissible = _admissible_weights(s, parity, lower, case.cap)
    steps.append(Step(
        rule="divisibility",
        inputs={"degree": s, "parity": parity, "lower": lower, "upper": case.cap},
        asserted_output=admissible,
        note=f"weights of nonzero {parity} even sets are congruent to "
             f"{residue} mod {modulus}; the argument handles those up to {case.cap}",
    ))
    for note in case.notes:
        steps.append(Step(rule="deviation-note", inputs={}, asserted_output=True,
                          note=note))
    dual = formulas.serre_dual_twist(s, case.twist)
    steps.append(Step(
        rule="serre-dual",
        inputs={"degree": s, "twist": case.twist},
        asserted_output=dual,
        note="twist paired by duality; cohomology in top degree moves there",
    ))
    if case.instability is not None:
        inst_twist, inst_bound = case.instability
        steps.append(Step(
            rule="instability-exclusion",
            inputs={"degree": s, "twist": inst_twist, "weight_cap": case.cap},
            asserted_output=inst_bound,
            note=f"an even set unstable in degree {inst_twist} would have at "
                 f"least {inst_bound} nodes, above every weight considered",
        ))
    for w in admissible:
        steps.append(Step(
            rule="chi-eval",
            inputs={"degree": s, "twist": case.twist, "weight": w},
            asserted_output=formulas.chi(s, case.twist, w),
        ))
    boundary_chi = formulas.chi(s, case.twist, case.cap)
    steps.append(Step(rule="hypothesis", inputs={},
                      asserted_output=True, note=_H2_HYPOTHESES[case.h2_mode]))
    if case.h2_mode == "equals-h0":
        h0_inputs: dict[str, object] = {"chi": boundary_chi, "h2_equals_h0": True}
        h0_bound = math.ceil(boundary_chi / 2)
    else:
        h2_bound = 0 if case.h2_mode == "vanishes" else 1
        h0_inputs = {"chi": boundary_chi, "h2_bound": h2_bound}
        h0_bound = boundary_chi - h2_bound
    steps.append(Step(
        rule="h0-lower-bound",
        inputs=h0_inputs,
        asserted_output=h0_bound,
        note="sections at the forcing twist exist for every admissible "
             "weight the argument handles",
    ))
    steps.append(Step(
        rule="hypothesis", inputs={}, asserted_output=True,
        note="with instability excluded, the set is semi-stable at the "
             "forcing twist and stable at the low contact degree, so a "
             "surface of that degree cuts it out",
    ))
    steps.append(Step(
        rule=conclusion_rule,
        inputs={"degree": s},
        asserted_output=min_weight,
    ))

    # Closed-form gap, cross-checked against the per-weight chain: every
    # excluded weight must sit below the argument's weight cap.
    excluded = tuple(w for w in _admissible_weights(s, parity, lower, upper - 1)
                     if w > min_weight)
    chain_excluded = tuple(w for w in admissible if min_weight < w < upper)
    if excluded != chain_excluded:
        raise AssertionError(
            f"gap mismatch for degree {s} ({parity}): closed form {excluded}, "
            f"per-weight chain {chain_excluded}"
        )
    report = GapReport(s, parity, min_weight, excluded, upper)
    return ProofCertificate(s, parity, tuple(steps), report)


def _weak_degree_two_certificate() -> ProofCertificate:
    # Quadric cone base case: the unique node is itself a weakly even set,
    # cut out by any plane through the cone's ruling.
    steps = (
        Step(rule="hypothesis", inputs={}, asserted_output=True,
             note="on the quadric cone every line passes through the node and "
                  "a plane has contact along each line, so the single node is "
                  "a weakly even set"),
        Step(rule="plane-conclusion", inputs={"degree": 2}, asserted_output=1),
    )
    report = GapReport(2, WEAK, 1, (), formulas.smooth_cubic_weight(2))
    return ProofCertificate(2, WEAK, steps, report)


def sextic_dim_certificate() -> ProofCertificate:
    """Checked chain showing the 65-node sextic code has dimension exactly 12."""
    s, mu = 6, 65
    admissible = (24, 32, 40, 56)
    steps = (
        Step(rule="dimension-bound",
             inputs={"degree": s, "nodes": mu, "parity": STRICT},
             asserted_output=12,
             note="isotropy bound: 65 - 106/2"),
        Step(rule="hypothesis", inputs={"admissible_weights": list(admissible)},
             asserted_output=True,
             note="every nonzero weight is 24, 32, 40 or 56 (cited result "
                  "beyond plain divisibility)"),
        Step(rule="hypothesis", inputs={},
             asserted_output=True,
             note="assumed: the code contains no word of weight 56 (open "
                  "whether such codes occur)"),
        Step(rule="griesmer",
             inputs={"k": 12, "d": 32, "length_budget": mu},
             asserted_output=69,
             note="a dimension-12 code with minimum distance 32 needs length "
                  "69 > 65, so a weight-24 word exists"),
        Step(rule="projection-kernel",
             inputs={"disjoint_sum": 24 + 24, "max_admissible": 40},
             asserted_output=0,
             note="projection onto the weight-24 word has trivial kernel: a "
                  "kernel word disjoint from it would sum to weight >= 48"),
        Step(rule="hypothesis", inputs={},
             asserted_output=True,
             note="for even surface degree the projection of the code onto a "
                  "codeword support keeps all weights divisible by 4"),
        Step(rule="self-orthogonality-bound",
             inputs={"length": 24},
             asserted_output=12,
             note="a doubly-even code is self-orthogonal, so twice its "
                  "dimension is at most its length"),
        Step(rule="conclusion",
             inputs={"lower": 12, "upper": 12},
             asserted_output=12),
    )
    return ProofCertificate(s, STRICT, steps, 12)


# Excluded-weight table, by (degree, parity); derive_gaps must reproduce it.
GAP_TABLE = {
    (6, WEAK): (19, 23),
    (8, WEAK): (32, 36, 40, 44, 48, 52, 56),
    (6, STRICT): (),
    (7, STRICT): (40,),
    (8, STRICT): (56,),
    (10, STRICT): (88, 96, 104, 112),
}
