"""The package's records behave as immutable values, like frozen dataclasses.

LinearCode, NodalSurface, Step, GapReport and ProofCertificate: equal fields
make equal records; a record equals no object of another type, not even a
tuple of its fields; its repr spells its fields in order; it cannot be
changed; and equal records hash alike when their fields are hashable.
"""

import copy
from fractions import Fraction
from types import SimpleNamespace

import pytest

from evensets.certificates import GapReport, ProofCertificate, Step
from evensets.gf2 import LinearCode
from evensets.surfaces import NodalSurface

STEP = ("chi-eval", {"degree": 4, "twist": 2, "weight": 8}, Fraction(1, 2))
REPORT = (7, "strict", 36, (40,), 42)
STEP_REPR = ("Step(rule='chi-eval', inputs={'degree': 4, 'twist': 2, 'weight': 8}, "
             "asserted_output=Fraction(1, 2), note='')")
REPORT_REPR = ("GapReport(degree=7, parity='strict', min_weight=36, excluded_weights=(40,), "
               "upper_endpoint=42)")

# (class, arguments, fields in order, repr, whether the fields are hashable)
RECORDS = [
    pytest.param(LinearCode, (4, (0b0011, 0b1111)), {"length": 4, "rows": (3, 12)},
                 "LinearCode(length=4, rows=(3, 12))", True, id="LinearCode"),
    pytest.param(NodalSurface, (4, 16), {"degree": 4, "node_count": 16},
                 "NodalSurface(degree=4, node_count=16)", True, id="NodalSurface"),
    pytest.param(Step, STEP, {"rule": "chi-eval", "inputs": STEP[1],
                              "asserted_output": Fraction(1, 2), "note": ""},
                 STEP_REPR, False, id="Step"),
    pytest.param(GapReport, REPORT, {"degree": 7, "parity": "strict", "min_weight": 36,
                                     "excluded_weights": (40,), "upper_endpoint": 42},
                 REPORT_REPR, True, id="GapReport"),
    pytest.param(ProofCertificate, (7, "strict", (), GapReport(*REPORT)),
                 {"degree": 7, "parity": "strict", "steps": (),
                  "conclusion": GapReport(*REPORT)},
                 f"ProofCertificate(degree=7, parity='strict', steps=(), "
                 f"conclusion={REPORT_REPR})", True, id="ProofCertificate"),
    pytest.param(ProofCertificate, (7, "strict", (Step(*STEP),), 36),
                 {"degree": 7, "parity": "strict", "steps": (Step(*STEP),),
                  "conclusion": 36},
                 f"ProofCertificate(degree=7, parity='strict', steps=({STEP_REPR},), "
                 f"conclusion=36)", False, id="ProofCertificate-with-a-step"),
]


@pytest.mark.parametrize("cls, args, fields, text, hashable", RECORDS)
def test_records_are_frozen_values(cls, args, fields, text, hashable):
    record, twin = cls(*args), cls(*copy.deepcopy(args))
    assert record == twin and not record != twin
    assert list(vars(record).items()) == list(fields.items())

    subclass = type("Sub", (cls,), {})
    for other in (tuple(fields.values()), SimpleNamespace(**fields), subclass(*args)):
        assert record != other and other != record
        assert not record == other

    assert repr(record) == text

    for name in [*fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == fields

    if hashable:
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)
