"""Built-in worked examples, runnable by name.

Each fixture builds a small input (a Laurent polynomial, a simplicial
complex, an arrangement of lines, a locus model, a graded algebra),
runs the relevant machinery, and returns a JSON-serializable report
with exact rational values; the subspaces, arrangements, polynomials
and models in it are written by the `codec` encoders, so a report is a
valid input wherever the CLI reads those shapes.  They serve both as
executable documentation and as the data behind the command-line
`fixtures` subcommand; the test suite pins their key numbers.  Each
runner imports the modules it uses, so running one example loads only
those.
"""

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from . import codec

Q = Fraction


@dataclass
class Fixture:
    """A worked example: the modules it exercises and its report builder."""

    name: str
    modules: tuple
    description: str
    runner: Callable

    def run(self, seed=0):
        report = self.runner(seed)
        report["fixture"] = self.name
        report["seed"] = seed
        return report


FIXTURES = {}


def _fixture(name, modules, description):
    def register(fn):
        FIXTURES[name] = Fixture(name, tuple(modules), description, fn)
        return fn

    return register


def fixture_names():
    return sorted(FIXTURES)


def fixture_list():
    return [
        {
            "name": f.name,
            "modules": list(f.modules),
            "description": f.description,
        }
        for _, f in sorted(FIXTURES.items())
    ]


def run_fixture(name, seed=0):
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture: {name}")
    return FIXTURES[name].run(seed=seed)


# ---------------------------------------------------------------------------
# Laurent-polynomial loci
# ---------------------------------------------------------------------------


@_fixture(
    "chain-link",
    ["laurent"],
    "three-variable polynomial whose exponential cone is three lines while "
    "the classical cone is a plane",
)
def _chain_link(seed):
    from .laurent import LaurentPolynomial, admissible_partitions, compare_tangent_cones

    f = LaurentPolynomial(
        3,
        {
            (1, 0, 0): 1,
            (0, 1, 0): 1,
            (0, 0, 1): 1,
            (1, 1, 0): -1,
            (1, 0, 1): -1,
            (0, 1, 1): -1,
        },
    )
    return {
        "polynomial": codec.polynomial(f),
        "admissible_partitions": len(admissible_partitions(f)),
        **codec.tangent_cones(compare_tangent_cones(f)),
    }


@_fixture(
    "trefoil",
    ["laurent"],
    "one-variable polynomial t^2 - t + 1: no jump at the identity, "
    "order-6 torsion characters",
)
def _trefoil(seed):
    from .laurent import LaurentPolynomial, link_cv1

    delta = LaurentPolynomial(1, {(2,): 1, (1,): -1, (0,): 1})
    link = link_cv1(delta)
    factors = link.root_factors()
    torsion = link.torsion_model()
    return {
        "delta": codec.polynomial(delta),
        "tau1": codec.arrangement(link.tau1()),
        "hypersurface_contains_identity": link.hypersurface_contains_identity(),
        "factors": [
            {
                "factor": codec.polynomial(fa["factor"]),
                "multiplicity": fa["multiplicity"],
                "cyclotomic_index": fa["cyclotomic_index"],
                "torsion_points": [str(x) for x in fa["torsion_points"]],
            }
            for fa in factors
        ],
        "model": codec.model(torsion["model"]),
        "nontorsion_factors": [codec.polynomial(p) for p in torsion["nontorsion_factors"]],
    }


@_fixture(
    "unknot",
    ["laurent"],
    "constant polynomial 1: empty hypersurface, locus reduced to the identity",
)
def _unknot(seed):
    from .laurent import LaurentPolynomial, link_cv1

    delta = LaurentPolynomial.constant(1, 1)
    link = link_cv1(delta)
    torsion = link.torsion_model()
    return {
        "delta": codec.polynomial(delta),
        "tau1": codec.arrangement(link.tau1()),
        "hypersurface_contains_identity": link.hypersurface_contains_identity(),
        "model": codec.model(torsion["model"]),
    }


@_fixture(
    "two-components",
    ["laurent"],
    "t1*t2 - 1: both tangent cones equal the anti-diagonal line",
)
def _two_components(seed):
    from .laurent import LaurentPolynomial, compare_tangent_cones

    f = LaurentPolynomial(2, {(1, 1): 1, (0, 0): -1})
    return {
        "polynomial": codec.polynomial(f),
        **codec.tangent_cones(compare_tangent_cones(f)),
    }


@_fixture(
    "s1s2",
    ["laurent", "aomoto", "cvmodel"],
    "rank-1 chain-complex family over f(t): 2-straight exactly when f'(1) != 0",
)
def _s1s2(seed):
    from .aomoto import aomoto_betti, s1s2_algebra, s1s2_resonance, universal_aomoto
    from .cvmodel import classify_straightness
    from .laurent import (
        EquivariantChainComplex1,
        LaurentPolynomial,
        cv_rank1_chain,
        link_cv1,
    )

    t_minus_1 = LaurentPolynomial(1, {(1,): 1, (0,): -1})
    zero = LaurentPolynomial.zero(1)
    family = {
        "0": LaurentPolynomial(1, {(2,): 1, (1,): -2, (0,): 1}),
        "1": t_minus_1,
        "2": LaurentPolynomial(1, {(2,): 1, (0,): -1}),
    }
    out = {}
    for label, f in family.items():
        fprime1 = sum(
            coeff * e[0] for e, coeff in f.terms.items()
        )  # derivative at t = 1
        chain = EquivariantChainComplex1(
            (1, 1, 1, 1), ([[t_minus_1]], [[zero]], [[f]])
        )
        w = {i: cv_rank1_chain(chain, i, 1) for i in range(4)}
        models = {
            1: link_cv1(w[1]).torsion_model()["model"],
            2: link_cv1(w[2]).torsion_model()["model"],
        }
        res = s1s2_resonance(fprime1)
        verdict = classify_straightness(models, res)
        algebra = s1s2_algebra(fprime1).padded()
        out[label] = {
            "f": codec.polynomial(f),
            "fprime1": str(fprime1),
            "w_polynomials": {str(i): codec.polynomial(w[i]) for i in w},
            "degree_models": {str(i): codec.model(models[i]) for i in models},
            "resonance": {str(i): codec.arrangement(res[i]) for i in res},
            "classification": verdict,
            "betti_at_1": [aomoto_betti(algebra, (Q(1),), i) for i in range(4)],
            "universal_matrices": [
                [[[str(x) for x in entry] for entry in row] for row in mat]
                for mat in universal_aomoto(s1s2_algebra(fprime1))
            ],
        }
    return {"family": out}


# ---------------------------------------------------------------------------
# toric complexes
# ---------------------------------------------------------------------------


@_fixture(
    "torus3",
    ["toric"],
    "full simplex on 3 vertices (the 3-torus): resonance is the origin, "
    "every plane is a member",
)
def _torus3(seed):
    from .qlinalg import RationalSubspace
    from .simplicial import full_simplex
    from .toric import toric_omega_member, toric_resonance

    k = full_simplex(3)
    line = RationalSubspace.span(3, [(1, 1, 1)])
    plane = RationalSubspace.span(3, [(1, 0, 0), (0, 1, 0)])
    return {
        "resonance_1_1": codec.coordinate_arrangement(toric_resonance(k, 1, 1)),
        "resonance_1_4": codec.coordinate_arrangement(toric_resonance(k, 1, 4)),
        "resonance_2_3": codec.coordinate_arrangement(toric_resonance(k, 2, 3)),
        "omega_line": toric_omega_member(k, 1, 1, line),
        "omega_plane": toric_omega_member(k, 1, 2, plane),
        "omega_full": toric_omega_member(k, 1, 3, RationalSubspace.full(3)),
    }


@_fixture(
    "path3-tree",
    ["toric"],
    "path graph on 3 vertices: one resonance plane, rank-1 members exist, "
    "rank-2 members do not",
)
def _path3(seed):
    from .qlinalg import RationalSubspace
    from .simplicial import SimplicialComplex
    from .toric import Graph, raag_r1, toric_omega_member, toric_resonance

    k = SimplicialComplex([(1, 2), (2, 3)])
    g = Graph(3, [(1, 2), (2, 3)])
    res = toric_resonance(k, 1, 1)
    line = RationalSubspace.span(3, [(1, 1, 1)])
    plane = RationalSubspace.span(3, [(1, 0, 0), (0, 1, 0)])
    return {
        "resonance": codec.coordinate_arrangement(res),
        "raag_r1_matches": raag_r1(g) == res,
        "omega_all_ones_line": toric_omega_member(k, 1, 1, line),
        "omega_sample_plane": toric_omega_member(k, 1, 2, plane),
        "connectivity": g.connectivity(),
    }


@_fixture(
    "cycle4",
    ["toric"],
    "4-cycle graph: two opposite-pair resonance planes, connectivity 2",
)
def _cycle4(seed):
    from .qlinalg import RationalSubspace
    from .simplicial import SimplicialComplex
    from .toric import Graph, raag_r1, toric_omega_member, toric_resonance

    edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
    k = SimplicialComplex(edges)
    g = Graph(4, edges)
    res = toric_resonance(k, 1, 1)
    diag = RationalSubspace.span(4, [(1, 1, 1, 1)])
    return {
        "resonance": codec.coordinate_arrangement(res),
        "raag_r1_matches": raag_r1(g) == res,
        "connectivity": g.connectivity(),
        "omega_diagonal_line": toric_omega_member(k, 1, 1, diag),
        "omega_full": toric_omega_member(k, 1, 4, RationalSubspace.full(4)),
    }


# ---------------------------------------------------------------------------
# line arrangements
# ---------------------------------------------------------------------------


@_fixture(
    "braid",
    ["arrangements"],
    "six lines with four triple points: four local components plus one "
    "matched-pair component",
)
def _braid(seed):
    from .arrangements import (
        ProjLineArrangement,
        braid_subarrangements,
        local_components,
        multiple_points,
        os_algebra_deg2,
        r1_arrangement,
        r1_completeness_note,
    )

    arr = ProjLineArrangement(
        [(1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 0, 1)]
    )
    braids = braid_subarrangements(arr)
    res = r1_arrangement(arr, seed=seed)
    return {
        "points": [codec.multiple_point(p) for p in multiple_points(arr)],
        "local_components": len(local_components(arr)),
        "braid_components": [
            {
                "lines": list(b.lines),
                "pairs": [list(p) for p in b.pairs],
                "subspace": codec.subspace(b.subspace),
            }
            for b in braids
        ],
        "r1_components": len(res),
        "r1_codim": res.codim(),
        "algebra_dims": list(os_algebra_deg2(arr).dims),
        "completeness_note": r1_completeness_note(arr),
    }


@_fixture(
    "near-pencil",
    ["arrangements", "cvmodel"],
    "three concurrent lines plus one generic: a single resonance plane and "
    "its incidence hyperplane in line coordinates",
)
def _near_pencil(seed):
    from .arrangements import (
        ProjLineArrangement,
        multiple_points,
        omega_bounds,
        os_algebra_deg2,
        r1_arrangement,
    )
    from .cvmodel import plucker2, schubert_codim, sigma_member
    from .qlinalg import RationalSubspace

    arr = ProjLineArrangement([(0, 1, 0), (0, 0, 1), (0, 1, -1), (1, 0, 0)])
    res = r1_arrangement(arr, seed=seed)
    comp = res.components[0]
    samples = []
    for rows in (
        ((1, 0, 0, 0), (0, 0, 0, 1)),
        ((1, -1, 0, 0), (0, 0, 0, 1)),
        ((1, 0, -1, 0), (0, 1, -1, 0)),
    ):
        plane = RationalSubspace.span(4, rows)
        p = plucker2(plane)
        samples.append(
            {
                "plane": codec.subspace(plane),
                "plucker": [str(x) for x in p],
                "incidence_form_value": str(p[0] - p[1] + p[3]),
                "sigma_member": sigma_member(res, plane),
            }
        )
    return {
        "points": [codec.multiple_point(p) for p in multiple_points(arr)],
        "r1_components": len(res),
        "component": codec.subspace(comp),
        "schubert_codim_r2": schubert_codim(comp, 2),
        "omega_bound_r3": omega_bounds(arr, 3),
        "omega_bound_r2": omega_bounds(arr, 2),
        "plucker_samples": samples,
        "algebra_dims": list(os_algebra_deg2(arr).dims),
    }


@_fixture(
    "deleted-b3",
    ["arrangements"],
    "eight lines, one quadruple and six triple points: seven local plus "
    "five matched-pair components",
)
def _deleted_b3(seed):
    from .arrangements import (
        ProjLineArrangement,
        braid_subarrangements,
        local_components,
        multiple_points,
        os_algebra_deg2,
        r1_arrangement,
        r1_completeness_note,
    )

    arr = ProjLineArrangement(
        [
            (1, 0, 0),
            (0, 1, 0),
            (1, -1, 0),
            (1, 1, 0),
            (1, 0, -1),
            (1, 0, 1),
            (0, 1, -1),
            (0, 1, 1),
        ]
    )
    braids = braid_subarrangements(arr)
    res = r1_arrangement(arr, seed=seed)
    return {
        "points": [codec.multiple_point(p) for p in multiple_points(arr)],
        "local_components": len(local_components(arr)),
        "braid_components": [
            {"lines": list(b.lines), "pairs": [list(p) for p in b.pairs]}
            for b in braids
        ],
        "r1_components": len(res),
        "r1_codim": res.codim(),
        "algebra_dims": list(os_algebra_deg2(arr).dims),
        "completeness_note": r1_completeness_note(arr),
        "translated_component_template": {
            "note": (
                "editable placeholder, not asserted: the degree-1 locus of "
                "this arrangement is known to carry one translated "
                "1-dimensional piece as well; fill in direction and "
                "translation from your own source and feed the model to "
                "`cv omega`"
            ),
            "verified": False,
            "model": {
                "n": 8,
                "components": [
                    {
                        "direction": [["1", "-1", "0", "0", "0", "0", "1", "-1"]],
                        "q": ["0", "1/2", "0", "1/2", "0", "1/2", "0", "1/2"],
                    }
                ],
                "isolated": [],
            },
        },
    }


@_fixture(
    "generic3",
    ["arrangements"],
    "three lines in general position: double points only, empty resonance",
)
def _generic3(seed):
    from .arrangements import (
        ProjLineArrangement,
        multiple_points,
        omega_bounds,
        os_algebra_deg2,
        r1_arrangement,
    )

    arr = ProjLineArrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    res = r1_arrangement(arr, seed=seed)
    return {
        "points": [codec.multiple_point(p) for p in multiple_points(arr)],
        "r1_components": len(res),
        "omega_bound_r1": omega_bounds(arr, 1),
        "omega_bound_r3": omega_bounds(arr, 3),
        "algebra_dims": list(os_algebra_deg2(arr).dims),
    }


# ---------------------------------------------------------------------------
# locus models and straightness
# ---------------------------------------------------------------------------


def _straight_c_data():
    from .cvmodel import CVModel, TranslatedTorus
    from .qlinalg import RationalSubspace, SubspaceArrangement

    direction = RationalSubspace.span(2, [(0, 1)])
    component = TranslatedTorus(direction, (Q(1, 2), 0))
    model = CVModel(2, [component], [(0, 0)])
    res = SubspaceArrangement(2, ())
    return model, res


@_fixture(
    "straight-c",
    ["cvmodel"],
    "one translated line plus the identity: locally 1-straight but not "
    "1-straight, and the resonance bound is strict",
)
def _straight_c(seed):
    from .cvmodel import (
        classify_straightness,
        model_tau1,
        omega_member,
        omega_upper_bound,
    )
    from .qlinalg import RationalSubspace

    model, res = _straight_c_data()
    plane = RationalSubspace.full(2)
    return {
        "model": codec.model(model),
        "resonance": codec.arrangement(res),
        "classification": classify_straightness({1: model}, {1: res}),
        "omega_member_full_plane": omega_member(model, plane),
        "resonance_bound_full_plane": omega_upper_bound(res, plane),
        "tau1": codec.arrangement(model_tau1(model)),
    }


@_fixture(
    "heisenberg",
    ["cvmodel"],
    "trivial locus against full-plane resonance: the matching condition fails",
)
def _heisenberg(seed):
    from .cvmodel import CVModel, classify_straightness, omega_member, omega_upper_bound
    from .qlinalg import RationalSubspace, SubspaceArrangement

    model = CVModel(2, (), [(0, 0)])
    res = SubspaceArrangement(2, [RationalSubspace.full(2)])
    plane = RationalSubspace.span(2, [(1, 0)])
    return {
        "model": codec.model(model),
        "resonance": codec.arrangement(res),
        "classification": classify_straightness({1: model}, {1: res}),
        "omega_member_line": omega_member(model, plane),
        "resonance_bound_line": omega_upper_bound(res, plane),
    }


@_fixture(
    "full-torus-model",
    ["cvmodel"],
    "the whole torus as one untranslated component: straight in degree 1",
)
def _full_torus_model(seed):
    from .cvmodel import (
        CVModel,
        TranslatedTorus,
        classify_straightness,
        omega_member,
        sigma_member,
    )
    from .qlinalg import RationalSubspace, SubspaceArrangement

    model = CVModel(2, [TranslatedTorus(RationalSubspace.full(2), (0, 0))])
    res = SubspaceArrangement(2, [RationalSubspace.full(2)])
    plane = RationalSubspace.span(2, [(1, 1)])
    return {
        "model": codec.model(model),
        "classification": classify_straightness({1: model}, {1: res}),
        "omega_member_line": omega_member(model, plane),
        "omega_exact_from_resonance": not sigma_member(res, plane),
    }


@_fixture(
    "witness-plane3",
    ["cvmodel"],
    "witness search in dimension 3: the plane spanned by e3 and (1/2,1,0)",
)
def _witness3(seed):
    from .cvmodel import (
        CVModel,
        TranslatedTorus,
        omega_member,
        sigma_member,
        strictness_witness,
    )
    from .qlinalg import RationalSubspace, SubspaceArrangement

    component = TranslatedTorus(
        RationalSubspace.span(3, [(0, 0, 1)]), (Q(1, 2), 0, 0)
    )
    res = SubspaceArrangement(3, [RationalSubspace.span(3, [(1, 0, 0)])])
    witness = strictness_witness(component, res, 3)
    model = CVModel(3, [component])
    report = {
        "component": {"n": 3, **codec.torus(component)},
        "resonance": codec.arrangement(res),
        "witness": None if witness is None else codec.subspace(witness),
    }
    if witness is not None:
        report["omega_member_at_witness"] = omega_member(model, witness)
        report["sigma_member_at_witness"] = sigma_member(res, witness)
    return report


# ---------------------------------------------------------------------------
# graded algebras
# ---------------------------------------------------------------------------


@_fixture(
    "koszul3",
    ["aomoto"],
    "exterior algebra on 3 generators: exact at every nonzero point",
)
def _koszul3(seed):
    from .aomoto import aomoto_betti, exterior_algebra

    alg = exterior_algebra(3).padded()
    a = (Q(1), Q(2), Q(-1))
    zero = (Q(0),) * 3
    return {
        "dims": list(alg.dims),
        "betti_at_a": [aomoto_betti(alg, a, i) for i in range(4)],
        "betti_at_0": [aomoto_betti(alg, zero, i) for i in range(4)],
    }


@_fixture(
    "genus2-surface",
    ["aomoto"],
    "genus-2 surface algebra: depth jumps of size 2g-2 away from 0",
)
def _genus2(seed):
    from .aomoto import aomoto_betti, resonance_member, surface_algebra

    alg = surface_algebra(2)
    a = (Q(1), Q(0), Q(0), Q(0))
    b = (Q(2), Q(3), Q(-1), Q(5))
    return {
        "dims": list(alg.dims),
        "betti1_at_e1": aomoto_betti(alg, a, 1),
        "betti1_generic": aomoto_betti(alg, b, 1),
        "member_depth2": resonance_member(alg, a, 1, 2),
        "member_depth3": resonance_member(alg, a, 1, 3),
        "betti2_padded": aomoto_betti(alg.padded(), a, 2),
    }


@_fixture(
    "torus-config3",
    ["aomoto"],
    "three points moving on a torus: the quadric point jumps, the generic "
    "point does not",
)
def _torus_config3(seed):
    from .aomoto import aomoto_betti, quotient_exterior_algebra

    relations = [
        {(0, 3): 1, (0, 4): -1, (1, 3): -1, (1, 4): 1},
        {(0, 3): 1, (0, 5): -1, (2, 3): -1, (2, 5): 1},
        {(1, 4): 1, (1, 5): -1, (2, 4): -1, (2, 5): 1},
    ]
    alg = quotient_exterior_algebra(6, relations)
    on_quadric = (Q(1), Q(-1), Q(0), Q(1), Q(-1), Q(0))
    off_quadric = (Q(1), Q(0), Q(0), Q(0), Q(1), Q(0))
    return {
        "dims": list(alg.dims),
        "betti1_on_quadric": aomoto_betti(alg, on_quadric, 1),
        "betti1_off_quadric": aomoto_betti(alg, off_quadric, 1),
    }


@_fixture(
    "product-surfaces",
    ["aomoto"],
    "product of genus-2 and genus-3 surfaces: axis components in degree 1, "
    "everything in degree 2; a wedge fills degree 1 outright",
)
def _product_surfaces(seed):
    from .aomoto import product_resonance, wedge_resonance
    from .qlinalg import RationalSubspace, SubspaceArrangement

    def surface_family(g):
        n = 2 * g
        full = SubspaceArrangement(n, [RationalSubspace.full(n)])
        trivial = SubspaceArrangement(n, ())
        return [trivial, full, trivial]

    fam2, fam3 = surface_family(2), surface_family(3)
    deg1 = product_resonance(fam2, fam3, 1)
    deg2 = product_resonance(fam2, fam3, 2)
    return {
        "degree1": codec.arrangement(deg1),
        "degree2": codec.arrangement(deg2),
        "wedge_degree1": codec.arrangement(wedge_resonance(4, 6, 1)),
    }
