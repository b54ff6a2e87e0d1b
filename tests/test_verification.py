import types

import evensets
from evensets import verification
from evensets.certificates import GAP_TABLE, derive_gaps
from evensets.verification import (
    verify_concluding_table,
    verify_corollary_gaps,
    verify_example_cohomology_tables,
    verify_theorem_main,
)


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
        weights8 = verification.KNOWN_STRICT_WEIGHTS[8]
        assert weights8[:3] == (48, 64, 72)
        assert weights8[-1] == 128
        weights10 = verification.KNOWN_STRICT_WEIGHTS[10]
        assert 88 not in weights10 and 112 not in weights10
        assert weights10[-1] == 208

    def test_cohomology_tables(self):
        report = verify_example_cohomology_tables()
        assert report["pass"]
        assert len(report["checks"]) == 8

    def test_gap_table_is_what_reports_check(self):
        for (s, parity), excluded in GAP_TABLE.items():
            assert derive_gaps(s, parity).conclusion.excluded_weights == excluded


def test_package_exports():
    assert sorted(evensets.__all__) == [
        "GapReport", "LinearCode", "NodalSurface", "ProofCertificate",
        "Step", "b2_resolution", "cayley_code", "chi",
        "classify_parity", "derive_gaps", "dim_lower_bound", "dual_code",
        "e_bar_min", "e_min",
        "griesmer_max_dim", "griesmer_min_length", "is_self_orthogonal",
        "kummer_code", "minimum_distance", "parse_generator_matrix",
        "project_onto_support", "serre_dual_twist", "sextic_dim_certificate",
        "strict_weight_modulus", "togliatti_code",
        "verify_concluding_table", "verify_corollary_gaps",
        "verify_example_cohomology_tables", "verify_theorem_main",
        "weak_weight_residue", "weight_distribution",
    ]
    namespace = {}
    exec("from evensets import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(evensets.__all__)
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]
