"""Exact-arithmetic toolkit for cohomology jump loci.

Everything runs over the rationals with `fractions.Fraction`; no floats,
no tolerances.  The subpackages cover: rational linear algebra in
canonical form (`qlinalg`), simplicial complexes and their toric spaces
(`simplicial`, `toric`), Laurent-polynomial loci for links and chain
complexes (`laurent`), rank tests on presented graded algebras
(`aomoto`), translated-torus models of character loci (`cvmodel`), and
projective line arrangements (`arrangements`).  `fixtures` holds the
worked examples; `cli` is the command-line front end.
"""

from .aomoto import (
    GradedAlgebraPresentation,
    aomoto_betti,
    quotient_exterior_algebra,
    resonance_member,
)
from .arrangements import (
    OracleError,
    ProjLineArrangement,
    braid_subarrangements,
    local_components,
    multiple_points,
    omega_bounds,
    os_algebra_deg2,
    r1_arrangement,
    r1_completeness_note,
)
from .cvmodel import (
    CVModel,
    TranslatedTorus,
    classify_straightness,
    model_tau1,
    omega_exact_straight,
    omega_member,
    omega_upper_bound,
    plucker2,
    schubert_codim,
    sigma_member,
    strictness_witness,
)
from .fixtures import fixture_list, fixture_names, run_fixture
from .laurent import (
    EquivariantChainComplex1,
    LaurentPolynomial,
    LinkCV1,
    admissible_partitions,
    compare_tangent_cones,
    cv_rank1_chain,
    exp_tangent_cone,
    hypersurface_tc1,
    link_cv1,
)
from .qlinalg import RationalSubspace, SubspaceArrangement
from .simplicial import SimplicialComplex, full_simplex
from .toric import (
    Graph,
    raag_r1,
    toric_cv,
    toric_omega_member,
    toric_resonance,
)

__version__ = "0.1.0"

__all__ = [
    "GradedAlgebraPresentation",
    "aomoto_betti",
    "quotient_exterior_algebra",
    "resonance_member",
    "OracleError",
    "ProjLineArrangement",
    "braid_subarrangements",
    "local_components",
    "multiple_points",
    "omega_bounds",
    "os_algebra_deg2",
    "r1_arrangement",
    "r1_completeness_note",
    "CVModel",
    "TranslatedTorus",
    "classify_straightness",
    "model_tau1",
    "omega_exact_straight",
    "omega_member",
    "omega_upper_bound",
    "plucker2",
    "schubert_codim",
    "sigma_member",
    "strictness_witness",
    "fixture_list",
    "fixture_names",
    "run_fixture",
    "EquivariantChainComplex1",
    "LaurentPolynomial",
    "LinkCV1",
    "admissible_partitions",
    "compare_tangent_cones",
    "cv_rank1_chain",
    "exp_tangent_cone",
    "hypersurface_tc1",
    "link_cv1",
    "RationalSubspace",
    "SubspaceArrangement",
    "SimplicialComplex",
    "full_simplex",
    "Graph",
    "raag_r1",
    "toric_cv",
    "toric_omega_member",
    "toric_resonance",
    "__version__",
]
