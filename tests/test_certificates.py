import json

import pytest

from evensets import certificates, formulas
from evensets.certificates import (
    CHECKERS,
    GAP_TABLE,
    Step,
    check_step,
    derive_gaps,
    sextic_dim_certificate,
    verify_concluding_table,
    verify_corollary_gaps,
    verify_example_cohomology_tables,
    verify_theorem_main,
)
from evensets.surfaces import STRICT, WEAK


class TestDeriveGaps:
    @pytest.mark.parametrize("s,parity,min_weight,excluded", [
        (3, STRICT, 4, ()),
        (4, STRICT, 8, ()),
        (5, STRICT, 16, ()),
        (6, STRICT, 24, ()),
        (7, STRICT, 36, (40,)),
        (8, STRICT, 48, (56,)),
        (10, STRICT, 80, (88, 96, 104, 112)),
        (2, WEAK, 1, ()),
        (4, WEAK, 6, ()),
        (6, WEAK, 15, (19, 23)),
        (8, WEAK, 28, (32, 36, 40, 44, 48, 52, 56)),
    ])
    def test_conclusions(self, s, parity, min_weight, excluded):
        cert = derive_gaps(s, parity)
        assert cert.conclusion.min_weight == min_weight
        assert cert.conclusion.excluded_weights == excluded

    def test_all_certificates_validate(self):
        for s in formulas.PROVEN_STRICT_DEGREES:
            assert derive_gaps(s, STRICT).validate()
        for s in formulas.PROVEN_WEAK_DEGREES:
            assert derive_gaps(s, WEAK).validate()

    def test_unproven_pair_rejected(self):
        with pytest.raises(certificates.UnprovenCaseError):
            derive_gaps(9, STRICT)
        with pytest.raises(certificates.UnprovenCaseError):
            derive_gaps(10, WEAK)

    @pytest.mark.parametrize("s, parity", [(-1, STRICT), (0, STRICT), (0, WEAK)])
    def test_nonpositive_degree_rejected(self, s, parity):
        with pytest.raises(ValueError, match="surface degree must be at least 1") as exc:
            derive_gaps(s, parity)
        assert not isinstance(exc.value, certificates.UnprovenCaseError)

    def test_unknown_parity_rejected(self):
        with pytest.raises(ValueError) as exc:
            derive_gaps(4, "bogus")
        assert str(exc.value) == \
            "parity must be one of ('strict', 'weak'), got 'bogus'"

    @pytest.mark.parametrize("s", [3, 5, 9])
    def test_weak_parity_on_odd_degree_is_impossible(self, s):
        with pytest.raises(formulas.WeakParityError) as exc:
            derive_gaps(s, WEAK)
        assert str(exc.value) == \
            f"degree {s} is odd; weakly even sets need even degree"

    def test_deterministic_serialization(self):
        a = derive_gaps(8, STRICT).to_json()
        b = derive_gaps(8, STRICT).to_json()
        assert a == b

    def test_schema(self):
        doc = json.loads(derive_gaps(7, STRICT).to_json())
        assert doc["schema_version"] == "1"
        assert {"rule", "inputs", "asserted_output", "note"} <= set(doc["steps"][0])
        assert doc["conclusion"]["excluded_weights"] == [40]

    def test_threshold_exceeds_minimum(self):
        for s in (7, 8, 10):
            cert = derive_gaps(s, STRICT)
            thresholds = [st.asserted_output for st in cert.steps
                          if st.rule == "instability-exclusion"]
            assert thresholds and thresholds[0] > cert.conclusion.min_weight
            assert all(w < thresholds[0]
                       for w in cert.conclusion.excluded_weights)

    def test_gap_closed_form(self):
        for s in (6, 7, 8, 10):
            cert = derive_gaps(s, STRICT)
            modulus = 8 if s % 2 == 0 else 4
            expected = tuple(
                w for w in range(1, formulas.smooth_quartic_weight(s))
                if w % modulus == 0 and w > formulas.e_min(s))
            assert cert.conclusion.excluded_weights == expected

    def test_degree7_deviation_note_present(self):
        cert = derive_gaps(7, STRICT)
        assert any(s.rule == "deviation-note" for s in cert.steps)


class TestStepChecking:
    def test_chi_eval_rejects_wrong_value(self):
        good = Step("chi-eval", {"degree": 8, "twist": 4, "weight": 56}, 6)
        bad = Step("chi-eval", {"degree": 8, "twist": 4, "weight": 56}, 7)
        assert check_step(good)
        assert not check_step(bad)

    def test_instability_requires_bound_above_cap(self):
        ok = Step("instability-exclusion",
                  {"degree": 7, "twist": 4, "weight_cap": 40}, 42)
        too_high_cap = Step("instability-exclusion",
                            {"degree": 7, "twist": 4, "weight_cap": 42}, 42)
        assert check_step(ok)
        assert not check_step(too_high_cap)

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError):
            check_step(Step("frobnicate", {}, 0))

    def test_tampered_certificate_fails(self):
        cert = derive_gaps(8, STRICT)
        steps = list(cert.steps)
        idx, chi_step = next((i, s) for i, s in enumerate(steps)
                             if s.rule == "chi-eval")
        steps[idx] = Step(chi_step.rule, chi_step.inputs,
                          chi_step.asserted_output + 1)
        tampered = certificates.ProofCertificate(
            cert.degree, cert.parity, tuple(steps), cert.conclusion)
        assert not tampered.validate()
        assert idx in tampered.invalid_steps()


CITED_RULES = {"hypothesis", "deviation-note"}


def all_certificates():
    return ([derive_gaps(s, parity) for s, parity in certificates._proven_pairs()]
            + [sextic_dim_certificate()])


def mutants(step):
    """Outputs one edit away from the asserted one."""
    out = step.asserted_output
    if step.rule == "divisibility":
        for i in range(len(out)):
            yield out[:i] + out[i + 1:]
        yield out + [out[-1] + 1]
        yield sorted(out + [out[0] + 1])
    else:
        yield out + 1
        yield out - 1


class TestRuleTable:
    def test_every_rule_is_used(self):
        used = {step.rule for cert in all_certificates() for step in cert.steps}
        assert set(CHECKERS) == used

    def test_every_arithmetic_mutant_rejected(self):
        checked = 0
        for cert in all_certificates():
            for step in cert.steps:
                if step.rule in CITED_RULES:
                    continue
                assert check_step(step)
                for wrong in mutants(step):
                    mutant = Step(step.rule, step.inputs, wrong, step.note)
                    assert not check_step(mutant), (cert.degree, cert.parity, mutant)
                    checked += 1
        assert checked > 200


class TestSexticCertificate:
    def test_conclusion(self):
        cert = sextic_dim_certificate()
        assert cert.conclusion == 12
        assert cert.validate()

    def test_dimension_bound_step(self):
        cert = sextic_dim_certificate()
        step = next(s for s in cert.steps if s.rule == "dimension-bound")
        assert step.asserted_output == 12

    def test_griesmer_step(self):
        cert = sextic_dim_certificate()
        step = next(s for s in cert.steps if s.rule == "griesmer")
        assert step.asserted_output == 69
        assert step.inputs == {"k": 12, "d": 32, "length_budget": 65}

    def test_no_weight56_hypothesis_recorded(self):
        cert = sextic_dim_certificate()
        assert any("56" in s.note for s in cert.steps if s.rule == "hypothesis")


class TestReports:
    def test_theorem_main(self):
        report = verify_theorem_main()
        assert report["pass"]
        minima = {c["name"]: c["actual"] for c in report["checks"]}
        assert minima["min-weight degree 3 strict"] == 4
        assert minima["min-weight degree 4 weak"] == 6
        assert minima["min-weight degree 7 strict"] == 36
        assert len(report["checks"]) == 11

    def test_corollary_gaps(self):
        report = verify_corollary_gaps()
        assert report["pass"]
        cells = {c["name"]: c["actual"] for c in report["checks"]}
        assert cells["gap degree 8 weak"] == [32, 36, 40, 44, 48, 52, 56]
        assert cells["gap degree 10 strict"] == [88, 96, 104, 112]
        assert cells["gap degree 6 strict"] == []

    def test_concluding_table(self):
        report = verify_concluding_table()
        assert report["pass"]

    def test_concluding_table_expansions(self):
        weights8 = certificates.KNOWN_STRICT_WEIGHTS[8]
        assert weights8[:3] == (48, 64, 72)
        assert weights8[-1] == 128
        weights10 = certificates.KNOWN_STRICT_WEIGHTS[10]
        assert 88 not in weights10 and 112 not in weights10
        assert weights10[-1] == 208

    def test_cohomology_tables(self):
        report = verify_example_cohomology_tables()
        assert report["pass"]
        assert len(report["checks"]) == 8

    def test_gap_table_is_what_reports_check(self):
        for (s, parity), excluded in GAP_TABLE.items():
            assert derive_gaps(s, parity).conclusion.excluded_weights == excluded
