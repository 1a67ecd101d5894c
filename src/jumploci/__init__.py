"""Exact-arithmetic toolkit for cohomology jump loci.

Everything runs over the rationals with `fractions.Fraction`; no floats,
no tolerances.  The subpackages cover: rational linear algebra in
canonical form (`qlinalg`), simplicial complexes and their toric spaces
(`simplicial`, `toric`), Laurent-polynomial loci for links and chain
complexes (`laurent`), rank tests on presented graded algebras
(`aomoto`), translated-torus models of character loci (`cvmodel`), and
projective line arrangements (`arrangements`).  `fixtures` holds the
worked examples, `codec` the JSON wire format, and `cli` is the
command-line front end.
"""

import importlib

# Each public name and the submodule that defines it.  Submodules load on
# first use, so a command-line run imports only the modules it needs.
_EXPORTS = {
    "GradedAlgebraPresentation": "aomoto",
    "aomoto_betti": "aomoto",
    "quotient_exterior_algebra": "aomoto",
    "resonance_member": "aomoto",
    "OracleError": "arrangements",
    "ProjLineArrangement": "arrangements",
    "braid_subarrangements": "arrangements",
    "local_components": "arrangements",
    "multiple_points": "arrangements",
    "omega_bounds": "arrangements",
    "os_algebra_deg2": "arrangements",
    "r1_arrangement": "arrangements",
    "r1_completeness_note": "arrangements",
    "CVModel": "cvmodel",
    "TranslatedTorus": "cvmodel",
    "classify_straightness": "cvmodel",
    "model_tau1": "cvmodel",
    "omega_exact_straight": "cvmodel",
    "omega_member": "cvmodel",
    "omega_upper_bound": "cvmodel",
    "plucker2": "cvmodel",
    "schubert_codim": "cvmodel",
    "sigma_member": "cvmodel",
    "strictness_witness": "cvmodel",
    "fixture_list": "fixtures",
    "fixture_names": "fixtures",
    "run_fixture": "fixtures",
    "EquivariantChainComplex1": "laurent",
    "LaurentPolynomial": "laurent",
    "LinkCV1": "laurent",
    "admissible_partitions": "laurent",
    "compare_tangent_cones": "laurent",
    "cv_rank1_chain": "laurent",
    "exp_tangent_cone": "laurent",
    "hypersurface_tc1": "laurent",
    "link_cv1": "laurent",
    "RationalSubspace": "qlinalg",
    "SubspaceArrangement": "qlinalg",
    "SimplicialComplex": "simplicial",
    "full_simplex": "simplicial",
    "Graph": "toric",
    "raag_r1": "toric",
    "toric_cv": "toric",
    "toric_omega_member": "toric",
    "toric_resonance": "toric",
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _EXPORTS.values():
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
