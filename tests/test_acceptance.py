"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal; under plain `pytest` the verdicts are still enforced
by the assertions.
"""

import json
import random
from fractions import Fraction

from evensets import certificates, cli, formulas, gf2, surfaces
from evensets.surfaces import STRICT, WEAK
from evensets.verification import CHI_CLOSED_FORMS


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_criterion_01_kummer_code():
    code = surfaces.kummer_code()
    ok = (gf2.weight_distribution(code) == {0: 1, 8: 30, 16: 1}
          and gf2.minimum_distance(code) == 8
          and gf2.classify_parity(code) == "doubly-even"
          and gf2.is_self_orthogonal(code))
    _verdict(1, "16-node quartic code: {0:1, 8:30, 16:1}, d=8, doubly-even, "
                "self-orthogonal", ok)


def test_criterion_02_togliatti_code():
    code = surfaces.togliatti_code()
    ok = gf2.weight_distribution(code) == {0: 1, 16: 31}
    _verdict(2, "31-node quintic code: 31 words of weight 16, none of "
                "weight 20", ok)


def test_criterion_03_griesmer():
    ok = (gf2.griesmer_max_dim(16, 8) == 5
          and gf2.griesmer_max_dim(31, 16) == 5)
    _verdict(3, "Griesmer max dimension: (n=16, d=8) -> 5 and "
                "(n=31, d=16) -> 5", ok)


def test_criterion_04_betti_and_dim_bounds():
    betti_ok = ({s: surfaces.b2_resolution(s) for s in (3, 4, 5, 6)}
                == {3: 7, 4: 22, 5: 53, 6: 106})
    bounds = {(s, mu): surfaces.dim_lower_bound(surfaces.NodalSurface(s, mu), STRICT)
              for s, mu in ((3, 4), (4, 16), (5, 31), (6, 65))}
    bounds_ok = bounds == {(3, 4): 1, (4, 16): 5, (5, 31): 5, (6, 65): 12}
    _verdict(4, "b2 = {7, 22, 53, 106} for degrees 3..6; strict dimension "
                "bounds 1/5/5/12", betti_ok and bounds_ok)


def test_criterion_05_sextic_certificate():
    cert = certificates.sextic_dim_certificate()
    griesmer_step = next(s for s in cert.steps if s.rule == "griesmer")
    ok = (cert.conclusion == 12 and cert.validate()
          and griesmer_step.asserted_output == 69
          and griesmer_step.inputs["length_budget"] == 65)
    _verdict(5, "sextic dimension certificate concludes 12 via Griesmer "
                "length 69 > 65", ok)


def test_criterion_06_chi_closed_forms():
    # 20 sampled triples covering every recorded closed form a - w/4 shape
    sampler = random.Random(1906)
    samples = []
    forms = list(CHI_CLOSED_FORMS)
    while len(samples) < 20:
        s, v, a = forms[len(samples) % len(forms)]
        w = 4 * sampler.randint(0, s * s)
        samples.append((s, v, w, a))
    ok = all(formulas.chi(s, v, w) == Fraction(a - w, 4)
             for s, v, w, a in samples)
    _verdict(6, "exact chi matches every recorded closed form on 20 sampled "
                "triples", ok)


def test_criterion_07_theorem_main():
    report = certificates.verify_theorem_main()
    minima = {(c["name"].split()[2], c["name"].split()[3]): c["actual"]
              for c in report["checks"]}
    strict = {int(s): v for (s, p), v in minima.items() if p == STRICT}
    weak = {int(s): v for (s, p), v in minima.items() if p == WEAK}
    ok = (report["pass"] and len(report["checks"]) == 11
          and strict == {3: 4, 4: 8, 5: 16, 6: 24, 7: 36, 8: 48, 10: 80}
          and weak == {2: 1, 4: 6, 6: 15, 8: 28})
    _verdict(7, "minimal weights match for all 11 proven (degree, parity) "
                "pairs", ok)


def test_criterion_08_corollary_gaps():
    report = certificates.verify_corollary_gaps()
    cells = {c["name"]: c["actual"] for c in report["checks"]}
    ok = (report["pass"]
          and cells["gap degree 8 weak"] == [32, 36, 40, 44, 48, 52, 56]
          and cells["gap degree 10 strict"] == [88, 96, 104, 112])
    _verdict(8, "excluded-weight table reproduced, including expanded rows "
                "for degree 8 weak and degree 10 strict", ok)


def test_criterion_09_concluding_table():
    report = certificates.verify_concluding_table()
    ok = report["pass"]
    _verdict(9, "realized strict weights pass divisibility, gap avoidance "
                "and per-degree minima", ok)


def test_criterion_10_property_suites():
    rng = random.Random(65)
    ok = True

    # |v + w| + 2|v & w| == |v| + |w| on 10^4 random pairs
    for _ in range(10_000):
        n = rng.randint(1, 64)
        v = gf2.BitWord(n, rng.getrandbits(n))
        w = gf2.BitWord(n, rng.getrandbits(n))
        ok &= ((v + w).weight + 2 * (v.mask & w.mask).bit_count()
               == v.weight + w.weight)

    # dual laws and doubly-even => self-orthogonal on 10^3 random codes
    for _ in range(1_000):
        n = rng.randint(1, 24)
        rows = [gf2.BitWord(n, rng.getrandbits(n))
                for _ in range(rng.randint(1, 10))]
        code = (gf2.LinearCode.from_rows(rows) if any(r.mask for r in rows)
                else gf2.LinearCode(n, ()))
        dual = gf2.dual_code(code)
        ok &= code.dimension + dual.dimension == n
        ok &= gf2.dual_code(dual) == code
        if gf2.classify_parity(code) == "doubly-even":
            ok &= gf2.is_self_orthogonal(code)

    # projection divisibility on all 30 weight-8 words of the quartic code
    kummer = surfaces.kummer_code()
    weight8 = [w for w in gf2.enumerate_codewords(kummer) if w.weight == 8]
    ok &= len(weight8) == 30
    for w in weight8:
        image, _ = gf2.project_onto_support(kummer, w)
        ok &= all(v % 4 == 0 for v in gf2.weight_distribution(image))

    # exhaustive Serre-twist symmetry of chi
    for s in range(2, 13):
        for v in range(-5, 2 * s + 1):
            dual_twist = formulas.serre_dual_twist(s, v)
            for w in range(0, 4 * s * s + 1, 4):
                ok &= formulas.chi(s, v, w) == formulas.chi(s, dual_twist, w)

    _verdict(10, "property suites (weight identity, dual laws, projection "
                 "divisibility, chi symmetry) with zero failures", ok)


def test_criterion_11_determinism(tmp_path):
    outputs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        assert cli.main(["--json", "--output", str(path),
                         "verify", "paper"]) == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and json.loads(outputs[0])["status"] == "pass"
    _verdict(11, "two consecutive `verify paper --json` runs are "
                 "byte-identical", ok)
