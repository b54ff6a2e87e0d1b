"""Binary-code analytics for even sets of nodes on nodal surfaces."""

from .gf2 import (
    BitWord,
    LinearCode,
    classify_parity,
    dual_code,
    enumerate_codewords,
    griesmer_max_dim,
    griesmer_min_length,
    is_self_orthogonal,
    minimum_distance,
    parse_generator_matrix,
    project_onto_support,
    weight_distribution,
)
from .surfaces import (
    NodalSurface,
    b2_resolution,
    cayley_code,
    dim_lower_bound,
    kummer_code,
    strict_weight_modulus,
    togliatti_code,
    weak_weight_residue,
)
from .formulas import chi, e_bar_min, e_min, serre_dual_twist
from .certificates import (
    GapReport,
    ProofCertificate,
    Step,
    derive_gaps,
    sextic_dim_certificate,
    verify_concluding_table,
    verify_corollary_gaps,
    verify_example_cohomology_tables,
    verify_theorem_main,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
