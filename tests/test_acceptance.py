"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Run as `pytest tests/test_acceptance.py` — the verdict lines print
unconditionally (outside pytest's capture), with the measured runtime
and the stated budget.  All arithmetic is exact; there are no
tolerances anywhere.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import sympy

from jumploci.aomoto import (
    aomoto_betti,
    aomoto_matrices,
    exterior_algebra,
    product_resonance,
    quotient_exterior_algebra,
    resonance_member,
    surface_algebra,
    universal_aomoto,
    wedge_resonance,
)
from jumploci.arrangements import (
    ProjLineArrangement,
    braid_subarrangements,
    local_components,
    os_algebra_deg2,
    r1_arrangement,
)
from jumploci.cvmodel import (
    CVModel,
    TranslatedTorus,
    classify_straightness,
    model_tau1,
    omega_member,
    omega_upper_bound,
    plucker2,
    sigma_member,
    strictness_witness,
)
from jumploci.laurent import (
    EquivariantChainComplex1,
    LaurentPolynomial,
    compare_tangent_cones,
    cv_rank1_chain,
    link_cv1,
)
from jumploci.qlinalg import RationalSubspace, SubspaceArrangement
from jumploci.simplicial import SimplicialComplex, full_simplex
from jumploci.toric import (
    Graph,
    omega_vanishing_bound,
    raag_r1,
    toric_omega_member,
    toric_resonance,
)
from jumploci.aomoto import s1s2_resonance

from oracles import (
    all_complexes,
    canonical_graphs,
    meets_rank,
    points_without_jump,
    random_laurent_terms,
    random_subspace_basis,
    random_vector,
)

Q = Fraction


@contextmanager
def announced(capsys, number, bound_s, summary):
    t0 = time.monotonic()
    failed = True
    try:
        yield
        failed = False
    finally:
        dt = time.monotonic() - t0
        verdict = "FAIL" if (failed or dt >= bound_s) else "PASS"
        with capsys.disabled():
            print(
                f"\nacceptance criterion {number} {verdict} "
                f"({dt:.2f}s, bound {bound_s}s): {summary}"
            )
    assert dt < bound_s, f"criterion {number} exceeded its {bound_s}s budget"


def _random_plane(rng, n, r):
    return RationalSubspace.span(n, random_subspace_basis(rng, n, r))


def test_criterion_1_chain_link_cones(capsys):
    with announced(
        capsys, 1, 1,
        "chain link: exponential cone is exactly three lines, classical "
        "cone one plane, and the two differ",
    ):
        f = LaurentPolynomial(
            3,
            {
                (1, 0, 0): Q(1),
                (0, 1, 0): Q(1),
                (0, 0, 1): Q(1),
                (1, 1, 0): Q(-1),
                (1, 0, 1): Q(-1),
                (0, 1, 1): Q(-1),
            },
        )
        rep = compare_tangent_cones(f)
        assert set(rep["tau1"].components) == {
            RationalSubspace.span(3, [(1, -1, 0)]),
            RationalSubspace.span(3, [(1, 0, -1)]),
            RationalSubspace.span(3, [(0, 1, -1)]),
        }
        tc = rep["tc1"]
        scale = tc.terms[(1, 0, 0)]
        assert {e: c / scale for e, c in tc.terms.items()} == {
            (1, 0, 0): Q(1),
            (0, 1, 0): Q(1),
            (0, 0, 1): Q(1),
        }
        assert rep["tau1_inside_tc1"] is True
        assert rep["equal"] is False


def test_criterion_2_exponential_cone_inclusion(capsys):
    with announced(
        capsys, 2, 30,
        "exponential cone inside the classical cone on 100 seeded "
        "polynomials (n <= 3, support <= 6, vanishing at the identity), "
        "zero violations",
    ):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(1, 3)
            f = LaurentPolynomial(n, random_laurent_terms(rng, n, 6))
            assert compare_tangent_cones(f)["tau1_inside_tc1"] is True


def test_criterion_3_toric_golden_set(capsys):
    with announced(
        capsys, 3, 60,
        "toric golden set: path tree loci and cover membership, torus "
        "always full, connectivity emptiness bound on every graph with "
        "up to 6 vertices at 20 seeded planes per pair",
    ):
        # path on three vertices
        path = SimplicialComplex([(1, 2), (2, 3)], 3)
        assert toric_resonance(path, 1, 1).subsets == ((1, 3),)
        assert toric_omega_member(
            path, 1, 1, RationalSubspace.span(3, [(1, 1, 1)])
        ) is True
        rng = random.Random(300)
        for _ in range(20):
            assert toric_omega_member(path, 1, 2, _random_plane(rng, 3, 2)) is False

        # the full torus never jumps
        torus = full_simplex(3)
        for r in (1, 2, 3):
            for _ in range(10):
                assert toric_omega_member(torus, 1, r, _random_plane(rng, 3, r)) is True

        # emptiness for r >= connectivity + 1, one representative per
        # isomorphism class of graphs on <= 6 vertices
        for n in range(1, 7):
            for edges in canonical_graphs(n):
                g = Graph(n, edges)
                k = SimplicialComplex(
                    list(edges) + [(v,) for v in range(1, n + 1)], n
                )
                for r in range(1, n + 1):
                    if not omega_vanishing_bound(g, r):
                        continue
                    for _ in range(20):
                        plane = _random_plane(rng, n, r)
                        assert toric_omega_member(k, 1, r, plane) is False


def test_criterion_4_degree_one_equivalence_exhaustive(capsys):
    with announced(
        capsys, 4, 120,
        "degree-one resonance of the toric complex equals the "
        "graph-group answer on its 1-skeleton, for all 7021 simplicial "
        "complexes on up to 5 vertices",
    ):
        checked = 0
        for n in range(0, 6):
            for k in all_complexes(n, SimplicialComplex):
                edges = [tuple(sorted(f)) for f in k.faces if len(f) == 2]
                assert (
                    toric_resonance(k, 1, 1).subsets
                    == raag_r1(Graph(n, edges)).subsets
                )
                checked += 1
        assert checked == 7021


def test_criterion_5_arrangement_components(capsys):
    with announced(
        capsys, 5, 60,
        "six-line braid-type: 4 local + 1 matched-pair component with "
        "exact equations; near-pencil incidence form vs rank oracle on "
        "50 seeded planes; 8-line deleted family: 7 local + 5 "
        "matched-pair, codimension 5; every component certified at >= "
        "10 sampled points",
    ):
        braid = ProjLineArrangement(
            ((1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 0, 1))
        )
        assert len(local_components(braid).components) == 4
        braid_comps = braid_subarrangements(braid)
        assert len(braid_comps) == 1
        assert braid_comps[0].pairs == ((1, 6), (2, 5), (3, 4))
        assert braid_comps[0].subspace == RationalSubspace.from_equations(
            6,
            [
                (1, 1, 1, 0, 0, 0),
                (1, 0, 0, 0, 0, -1),
                (0, 1, 0, 0, -1, 0),
                (0, 0, 1, -1, 0, 0),
            ],
        )
        res6 = r1_arrangement(braid)
        assert len(res6.components) == 5

        # near-pencil, ordered so the triple point is lines {1,2,3}
        pencil = ProjLineArrangement(((0, 1, 0), (0, 0, 1), (0, 1, -1), (1, 0, 0)))
        res = r1_arrangement(pencil)
        assert len(res.components) == 1
        reference = RationalSubspace.from_equations(4, [(1, 1, 1, 0), (0, 0, 0, 1)])
        assert res.components[0] == reference
        rng = random.Random(500)
        seen = set()
        for _ in range(50):
            p = RationalSubspace.span(4, random_subspace_basis(rng, 4, 2))
            pl = plucker2(p)
            form = pl[0] - pl[1] + pl[3]
            meets = meets_rank(list(p.basis), list(reference.basis), 4)
            assert (form == 0) == meets
            seen.add(meets)
        assert seen == {True, False}

        deleted = ProjLineArrangement(
            (
                (1, 0, 0),
                (0, 1, 0),
                (1, -1, 0),
                (1, 1, 0),
                (1, 0, -1),
                (1, 0, 1),
                (0, 1, -1),
                (0, 1, 1),
            )
        )
        assert len(local_components(deleted).components) == 7
        assert len(braid_subarrangements(deleted)) == 5
        res8 = r1_arrangement(deleted)
        assert len(res8.components) == 12
        assert res8.codim() == 5

        # the exact certificates behind these components, sampled by the
        # rank oracle at 10 points each
        sample_rng = random.Random(505)
        for arr, found in ((braid, res6), (pencil, res), (deleted, res8)):
            alg = os_algebra_deg2(arr)
            for c in found.components:
                assert points_without_jump(alg, c, sample_rng, 10) == []


def test_criterion_6_straightness_classifier(capsys):
    with announced(
        capsys, 6, 1,
        "straightness: translated-line model locally straight but not "
        "straight with the rank-2 cover set empty against a full "
        "incidence complement; cone-mismatch model fails (b); full "
        "torus straight; two-sphere-product family straight in degree "
        "2 exactly when the derivative at 1 is nonzero",
    ):
        # translated line plus identity, trivial resonance
        line = TranslatedTorus(RationalSubspace.span(2, [(0, 1)]), (Q(1, 2), Q(0)))
        model = CVModel(2, components=(line,), isolated_points=((Q(0), Q(0)),))
        res = SubspaceArrangement(2, [])
        out = classify_straightness({1: model}, {1: res})
        assert out == {
            "locally_k_straight": True,
            "k_straight": False,
            "failing_condition": "c",
            "degree": 1,
        }
        full = RationalSubspace.full(2)
        assert omega_member(model, full) is False
        assert omega_upper_bound(res, full) is True

        mismatch = CVModel(2, components=(), isolated_points=((Q(0), Q(0)),))
        wide = SubspaceArrangement(2, [RationalSubspace.full(2)])
        out = classify_straightness({1: mismatch}, {1: wide})
        assert out["failing_condition"] == "b"

        torus = CVModel(2, components=(TranslatedTorus(full, (Q(0), Q(0))),))
        out = classify_straightness({1: torus}, {1: wide})
        assert out["k_straight"] is True

        # chain complexes over one variable, parametrized by the top
        # boundary polynomial f with f'(1) in {0, 1, 2}
        t_minus_1 = LaurentPolynomial(1, {(1,): Q(1), (0,): Q(-1)})
        zero = LaurentPolynomial(1, {})
        family = {
            0: LaurentPolynomial(1, {(2,): Q(1), (1,): Q(-2), (0,): Q(1)}),
            1: t_minus_1,
            2: LaurentPolynomial(1, {(2,): Q(1), (0,): Q(-1)}),
        }
        for fprime1, f in family.items():
            chain = EquivariantChainComplex1(
                (1, 1, 1, 1), ([[t_minus_1]], [[zero]], [[f]])
            )
            derivative = sum(
                c * e[0] for e, c in f.terms.items()
            )
            assert derivative == fprime1
            models, resonance = {}, s1s2_resonance(Q(fprime1))
            for i in (1, 2):
                w = cv_rank1_chain(chain, i, 1)
                models[i] = link_cv1(w).torsion_model()["model"]
            verdict = classify_straightness(models, resonance)
            assert verdict["k_straight"] == (fprime1 != 0)


def test_criterion_7_strictness_witness(capsys):
    with announced(
        capsys, 7, 5,
        "witness search at bound 3: both stated fixtures return the "
        "asserted plane, and each witness is outside the cover set yet "
        "inside the incidence complement",
    ):
        # trivial resonance in the plane: the witness is the whole plane
        comp2 = TranslatedTorus(RationalSubspace.span(2, [(0, 1)]), (Q(1, 2), Q(0)))
        empty = SubspaceArrangement(2, [])
        w2 = strictness_witness(comp2, empty, 3)
        assert w2 == RationalSubspace.full(2)
        assert omega_member(CVModel(2, components=(comp2,)), w2) is False
        assert sigma_member(empty, w2) is False

        # one resonance line in three-space
        comp3 = TranslatedTorus(
            RationalSubspace.span(3, [(0, 0, 1)]), (Q(1, 2), Q(0), Q(0))
        )
        res3 = SubspaceArrangement(3, [RationalSubspace.span(3, [(1, 0, 0)])])
        w3 = strictness_witness(comp3, res3, 3)
        assert w3 == RationalSubspace.span(3, [(Q(1, 2), 1, 0), (0, 0, 1)])
        assert omega_member(CVModel(3, components=(comp3,)), w3) is False
        assert sigma_member(res3, w3) is False


def test_criterion_8_aomoto_property_suite(capsys):
    with announced(
        capsys, 8, 60,
        "algebra suite: differentials square to zero symbolically and "
        "at 200 seeded points, Euler characteristic constant, exterior "
        "algebra exact off the origin, genus-2 Betti numbers, torus "
        "configuration on/off quadric split, product and wedge "
        "formulas",
    ):
        conf = quotient_exterior_algebra(
            6,
            [
                {(0, 3): Q(1), (0, 4): Q(-1), (1, 3): Q(-1), (1, 4): Q(1)},
                {(0, 3): Q(1), (0, 5): Q(-1), (2, 3): Q(-1), (2, 5): Q(1)},
                {(1, 4): Q(1), (1, 5): Q(-1), (2, 4): Q(-1), (2, 5): Q(1)},
            ],
        )
        stock = [exterior_algebra(3), surface_algebra(2), conf]

        # symbolic square-zero: universal_aomoto itself verifies every
        # composition of the linear-form matrices; sympy repeats one
        for alg in stock:
            mats = universal_aomoto(alg)
            xs = sympy.symbols(f"x0:{alg.n}")
            sym = [
                sympy.Matrix(
                    [
                        [
                            sum(sympy.Rational(c) * x for c, x in zip(entry, xs))
                            for entry in row
                        ]
                        for row in mat
                    ]
                )
                for mat in mats
                if mat
            ]
            for a, b in zip(sym, sym[1:]):
                assert sympy.expand(b * a) == sympy.zeros(b.rows, a.cols)

        rng = random.Random(808)
        for _ in range(200):
            alg = rng.choice(stock)
            ev = aomoto_matrices(alg, random_vector(rng, alg.n, -4, 4))
            for d1, d2 in zip(ev.matrices, ev.matrices[1:]):
                if not d1 or not d2 or not d2[0]:
                    continue
                for r in range(len(d2)):
                    for c in range(len(d1[0])):
                        assert (
                            sum(d2[r][k] * d1[k][c] for k in range(len(d1))) == 0
                        )

        # Euler characteristic never depends on the point
        for alg in (exterior_algebra(3).padded(), surface_algebra(2).padded()):
            chis = set()
            for _ in range(20):
                a = random_vector(rng, alg.n)
                chis.add(
                    sum(
                        (-1) ** i * aomoto_betti(alg, a, i)
                        for i in range(len(alg.dims) - 1)
                    )
                )
            assert len(chis) == 1

        # exactness off the origin for the rank-3 exterior algebra
        ext = exterior_algebra(3).padded()
        for a in ((1, 0, 0), (1, 2, 3), (0, 0, 5)):
            for i in (1, 2, 3):
                assert aomoto_betti(ext, a, i) == 0

        # genus-2 surface
        surf = surface_algebra(2).padded()
        assert aomoto_betti(surf, (1, 0, 0, 0), 1) == 2
        assert aomoto_betti(surf, (1, 0, 0, 0), 2) == 0
        assert resonance_member(surface_algebra(2), (1, 0, 0, 0), 1, 2) is True
        assert resonance_member(surface_algebra(2), (1, 0, 0, 0), 1, 3) is False

        # on/off the discriminating quadric
        on = (Q(1), Q(-1), Q(0), Q(1), Q(-1), Q(0))
        off = (Q(1), Q(0), Q(0), Q(0), Q(1), Q(0))
        assert aomoto_betti(conf, on, 1) == 1
        assert aomoto_betti(conf, off, 1) == 0

        # product and wedge of surface families
        g, h = 2, 3
        full_g = SubspaceArrangement(2 * g, [RationalSubspace.full(2 * g)])
        triv_g = SubspaceArrangement(2 * g, [])
        full_h = SubspaceArrangement(2 * h, [RationalSubspace.full(2 * h)])
        triv_h = SubspaceArrangement(2 * h, [])
        deg1 = product_resonance([triv_g, full_g, triv_g], [triv_h, full_h, triv_h], 1)
        assert sorted(c.dim for c in deg1.components) == [4, 6]
        deg2 = product_resonance([triv_g, full_g, triv_g], [triv_h, full_h, triv_h], 2)
        assert [c.dim for c in deg2.components] == [10]
        assert wedge_resonance(2 * g, 2 * h, 1).components == (
            RationalSubspace.full(10),
        )


def test_criterion_9_untranslated_equivalence(capsys):
    with announced(
        capsys, 9, 30,
        "cover membership coincides with the incidence complement on "
        "100 seeded untranslated models, both directions exercised",
    ):
        rng = random.Random(909)
        outcomes = set()
        for _ in range(100):
            n = rng.randint(2, 4)
            comps = tuple(
                TranslatedTorus(
                    RationalSubspace.span(
                        n, random_subspace_basis(rng, n, rng.randint(1, n - 1))
                    ),
                    (Q(0),) * n,
                )
                for _ in range(rng.randint(0, 3))
            )
            model = CVModel(n, components=comps)
            plane = _random_plane(rng, n, rng.randint(1, n))
            got = omega_member(model, plane)
            assert got == (not sigma_member(model_tau1(model), plane))
            outcomes.add(got)
        assert outcomes == {True, False}
