import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evensets import certificates, formulas, surfaces, verification
from evensets.certificates import (
    CHECKERS,
    Step,
    check_step,
    derive_gaps,
    sextic_dim_certificate,
)
from evensets.formulas import STRICT, WEAK


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
        for s in formulas.PROVEN_DEGREES[STRICT]:
            assert derive_gaps(s, STRICT).validate()
        for s in formulas.PROVEN_DEGREES[WEAK]:
            assert derive_gaps(s, WEAK).validate()

    def test_unproven_pair_rejected(self):
        with pytest.raises(formulas.UnprovenDegreeError):
            derive_gaps(9, STRICT)
        with pytest.raises(formulas.UnprovenDegreeError):
            derive_gaps(10, WEAK)

    @pytest.mark.parametrize("s, parity", [(-1, STRICT), (0, STRICT), (0, WEAK)])
    def test_nonpositive_degree_rejected(self, s, parity):
        with pytest.raises(ValueError, match="surface degree must be at least 1") as exc:
            derive_gaps(s, parity)
        assert not isinstance(exc.value, formulas.UnprovenDegreeError)

    def test_unknown_parity_rejected(self):
        # One message, from the gap certificates and the dimension bound alike.
        for call in (lambda: derive_gaps(4, "bogus"),
                     lambda: surfaces.dim_lower_bound(surfaces.NodalSurface(4, 16), "bogus")):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == \
                "parity must be one of ('strict', 'weak'), got 'bogus'"

    @pytest.mark.parametrize("s", [3, 5, 9])
    def test_weak_parity_on_odd_degree_is_impossible(self, s):
        with pytest.raises(formulas.WeakParityError) as exc:
            derive_gaps(s, WEAK)
        assert str(exc.value) == \
            f"degree {s} is odd; weakly even sets need even degree"

    @pytest.mark.parametrize("s", [1, 2])
    def test_strict_parity_on_low_degree_is_impossible(self, s):
        with pytest.raises(ValueError) as exc:
            derive_gaps(s, STRICT)
        assert str(exc.value) == (
            f"no nonzero strictly even set exists in degree {s}; "
            f"a degree-{s} surface has at most 1 node")

    @pytest.mark.parametrize("parity, closed_form", [(STRICT, formulas.e_min),
                                                     (WEAK, formulas.e_bar_min)])
    @pytest.mark.parametrize("s", range(-2, 14))
    def test_preconditions_agree_with_the_closed_forms(self, s, parity, closed_form):
        outcomes = []
        for call in (lambda: derive_gaps(s, parity).conclusion.min_weight,
                     lambda: closed_form(s)):
            try:
                outcomes.append(("value", call()))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    def test_deterministic_serialization(self):
        a = json.dumps(derive_gaps(8, STRICT).to_dict())
        b = json.dumps(derive_gaps(8, STRICT).to_dict())
        assert a == b

    def test_schema(self):
        doc = json.loads(json.dumps(derive_gaps(7, STRICT).to_dict()))
        assert doc["schema_version"] == "1"
        assert {"rule", "inputs", "asserted_output", "note"} <= set(doc["steps"][0])
        assert doc["conclusion"]["excluded_weights"] == [40]

    @given(st.sampled_from([(s, parity) for parity in (STRICT, WEAK)
                            for s in formulas.PROVEN_DEGREES[parity]]),
           st.integers(-20, 300), st.integers(-20, 300))
    def test_admissible_weights_equal_the_filter(self, pair, lower, upper):
        s, parity = pair
        modulus, residue = certificates._weight_rule(s, parity)
        assert certificates._admissible_weights(s, parity, lower, upper) == [
            w for w in range(lower, upper + 1) if w % modulus == residue]

    def test_encoder_rejects_an_unknown_type(self):
        with pytest.raises(TypeError) as exc:
            certificates._encode({"steps": [object()]})
        assert str(exc.value) == "no JSON form for type object"

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

    def test_gap_mismatch_is_caught(self, monkeypatch):
        # A cap that the closed form and the per-weight chain read differently.
        case = certificates._Case(twist=4, h2_mode="at-most-one", cap=36,
                                  instability=(4, 42))
        monkeypatch.setitem(certificates._CASES, (7, STRICT), case)
        with pytest.raises(AssertionError) as exc:
            derive_gaps(7, STRICT)
        assert str(exc.value) == ("gap mismatch for degree 7 (strict): closed form (40,), "
                                  "per-weight chain ()")


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
    return ([derive_gaps(s, parity) for s, parity in verification._proven_pairs()]
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
