"""Rank tests on presented graded algebras: stock algebras, the symbolic
complex, and the structural properties every presentation must satisfy."""

import copy
import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest
import sympy

from jumploci import codec
from jumploci.aomoto import (
    GradedAlgebraPresentation,
    InconsistentPresentation,
    _integer_point,
    aomoto_betti,
    aomoto_matrices,
    exterior_algebra,
    isotropy_obstruction,
    product_resonance,
    quotient_exterior_algebra,
    resonance_member,
    s1s2_algebra,
    s1s2_resonance,
    surface_algebra,
    universal_aomoto,
    wedge_resonance,
)
from jumploci.cli import main
from jumploci.qlinalg import RationalSubspace, SubspaceArrangement

from oracles import (
    commutativity_failure,
    evaluate_universal,
    quotient_exterior_algebra_by_reduction,
    random_vector,
    sympy_betti,
    zero_multiplication_algebra,
)

Q = Fraction


def _conf_t2_3():
    """Configuration space of three labeled points on a torus: six
    generators, three quadratic relations."""
    rels = [
        {(0, 3): Q(1), (0, 4): Q(-1), (1, 3): Q(-1), (1, 4): Q(1)},
        {(0, 3): Q(1), (0, 5): Q(-1), (2, 3): Q(-1), (2, 5): Q(1)},
        {(1, 4): Q(1), (1, 5): Q(-1), (2, 4): Q(-1), (2, 5): Q(1)},
    ]
    return quotient_exterior_algebra(6, rels)


# (e1 + e2/2)(e3 - 2e4/3) is the first relation, so the plane spanned by
# these two factors lies in the degree-1 resonance variety
_FRACTIONAL_PLANE = (
    (Q(1), Q(1, 2), Q(0), Q(0), Q(0)),
    (Q(0), Q(0), Q(1), Q(-2, 3), Q(0)),
)


def _fractional_quotient():
    """Five generators, two relations with non-integer coefficients."""
    rels = [
        {(0, 2): Q(1), (0, 3): Q(-2, 3), (1, 2): Q(1, 2), (1, 3): Q(-1, 3)},
        {(0, 4): Q(3, 4), (3, 4): Q(5, 6), (1, 4): Q(-1, 5)},
    ]
    return quotient_exterior_algebra(5, rels)


def test_genus2_surface_betti():
    alg = surface_algebra(2).padded()
    rng = random.Random(4)
    for _ in range(10):
        a = random_vector(rng, 4)
        if all(x == 0 for x in a):
            continue
        assert aomoto_betti(alg, a, 1) == 2
        assert aomoto_betti(alg, a, 2) == 0
    assert resonance_member(surface_algebra(2), (1, 0, 0, 0), 1, 2) is True
    assert resonance_member(surface_algebra(2), (1, 0, 0, 0), 1, 3) is False
    # genus one is the torus: no jumps away from the origin
    torus = surface_algebra(1).padded()
    assert aomoto_betti(torus, (1, 1), 1) == 0


def test_torus_koszul_exactness():
    # the exterior algebra on three generators is exact off the origin
    alg = exterior_algebra(3).padded()
    rng = random.Random(9)
    for _ in range(10):
        a = random_vector(rng, 3)
        if all(x == 0 for x in a):
            continue
        for i in (1, 2, 3):
            assert aomoto_betti(alg, a, i) == 0
    # while the origin sees the full exterior Betti numbers
    assert [aomoto_betti(alg, (0, 0, 0), i) for i in (1, 2, 3)] == [3, 3, 1]


def test_s1s2_algebra_betti_by_parameter():
    for c in (0, 1, 2):
        alg = s1s2_algebra(Q(c)).padded()
        expected = [0, 0, 1, 1] if c == 0 else [0, 0, 0, 0]
        got = [aomoto_betti(alg, (Q(1),), i) for i in (0, 1, 2, 3)]
        assert got == expected


def test_s1s2_resonance_split():
    trivial = SubspaceArrangement(1, [])
    full = SubspaceArrangement(1, [RationalSubspace.full(1)])
    assert s1s2_resonance(Q(0)) == {1: trivial, 2: full}
    assert s1s2_resonance(Q(2)) == {1: trivial, 2: trivial}


def test_configuration_space_quadric_discrimination():
    alg = _conf_t2_3()
    assert alg.dims == (1, 6, 12)
    on = (Q(1), Q(-1), Q(0), Q(1), Q(-1), Q(0))
    off = (Q(1), Q(0), Q(0), Q(0), Q(1), Q(0))
    assert aomoto_betti(alg, on, 1) == 1
    assert aomoto_betti(alg, off, 1) == 0
    assert resonance_member(alg, on, 1, 1) is True
    assert resonance_member(alg, off, 1, 1) is False


def test_product_and_wedge_formulas():
    # surfaces of genus 2 and 3: degree-1 resonance of the product is
    # (R^1 x 0) u (0 x R^1); in degree 2 the two full factors pair up
    g, h = 2, 3
    full_g = SubspaceArrangement(2 * g, [RationalSubspace.full(2 * g)])
    triv_g = SubspaceArrangement(2 * g, [])
    full_h = SubspaceArrangement(2 * h, [RationalSubspace.full(2 * h)])
    triv_h = SubspaceArrangement(2 * h, [])
    fam_g = [triv_g, full_g, triv_g]
    fam_h = [triv_h, full_h, triv_h]
    deg1 = product_resonance(fam_g, fam_h, 1)
    assert sorted(c.dim for c in deg1.components) == [4, 6]
    deg2 = product_resonance(fam_g, fam_h, 2)
    assert [c.dim for c in deg2.components] == [10]
    wedge = wedge_resonance(2 * g, 2 * h, 1)
    assert wedge.components == (RationalSubspace.full(10),)


def test_universal_matrices_square_to_zero_symbolically():
    for alg in (
        exterior_algebra(3),
        surface_algebra(2),
        s1s2_algebra(Q(2)),
        _conf_t2_3(),
    ):
        mats = universal_aomoto(alg)  # raises if any composition is nonzero
        # cross-check one composition with sympy symbols
        n = alg.n
        xs = sympy.symbols(f"x0:{n}")
        sym = [
            sympy.Matrix(
                [
                    [sum(Q(c) * x for c, x in zip(entry, xs)) for entry in row]
                    for row in mat
                ]
            )
            for mat in mats
            if mat
        ]
        for a, b in zip(sym, sym[1:]):
            prod = sympy.expand(b * a)
            assert prod == sympy.zeros(prod.rows, prod.cols)


def test_differentials_square_to_zero_at_seeded_points():
    rng = random.Random(21)
    algebras = [exterior_algebra(3), surface_algebra(2), _conf_t2_3()]
    count = 0
    for _ in range(200):
        alg = rng.choice(algebras)
        a = random_vector(rng, alg.n, -4, 4)
        ev = aomoto_matrices(alg, a)
        for d1, d2 in zip(ev.matrices, ev.matrices[1:]):
            if not d1 or not d2 or not d2[0]:
                continue
            rows, mid, cols = len(d2), len(d1), len(d1[0])
            for r in range(rows):
                for c in range(cols):
                    s = sum(d2[r][k] * d1[k][c] for k in range(mid))
                    assert s == 0
            count += 1
    assert count > 0


def test_euler_characteristic_is_independent_of_the_point():
    rng = random.Random(35)
    for alg in (exterior_algebra(3).padded(), surface_algebra(2).padded()):
        base = None
        for _ in range(15):
            a = random_vector(rng, alg.n)
            chi = sum(
                (-1) ** i * aomoto_betti(alg, a, i)
                for i in range(len(alg.dims) - 1)
            )
            if base is None:
                base = chi
            assert chi == base
        # and it matches the alternating sum of the dimensions
        assert base == sum((-1) ** i * d for i, d in enumerate(alg.dims))


def test_betti_is_invariant_under_scaling_the_point():
    rng = random.Random(50)
    alg = _conf_t2_3()
    for _ in range(10):
        a = random_vector(rng, 6)
        if all(x == 0 for x in a):
            continue
        scaled = tuple(Q(3, 7) * x for x in a)
        assert aomoto_betti(alg, a, 1) == aomoto_betti(alg, scaled, 1)


def test_change_of_basis_covariance():
    # conjugating the presentation by a degree-1 basis change must not
    # change any Betti number at correspondingly transformed points
    alg = surface_algebra(2)
    n = alg.n
    m = [
        [Q(1), Q(1), Q(0), Q(0)],
        [Q(0), Q(1), Q(0), Q(0)],
        [Q(0), Q(0), Q(1), Q(2)],
        [Q(0), Q(0), Q(0), Q(1)],
    ]
    # transform the degree-1 x degree-1 -> degree-2 tensor on both inputs
    tensor = alg.mult[0]

    def combo(rows_weights):
        out = None
        for w, row in rows_weights:
            vec = tuple(w * x for x in row)
            out = vec if out is None else tuple(a + b for a, b in zip(out, vec))
        return out

    new_tensor = []
    for j in range(n):
        col = []
        for l in range(n):
            col.append(
                combo(
                    [
                        (m[j][p] * m[l][q], tensor[p][q])
                        for p in range(n)
                        for q in range(n)
                    ]
                )
            )
        new_tensor.append(col)
    changed = GradedAlgebraPresentation(alg.dims, [new_tensor])
    rng = random.Random(61)
    minv = sympy.Matrix([[sympy.Rational(x) for x in row] for row in m]).inv()
    for _ in range(10):
        a = random_vector(rng, n)
        moved = tuple(
            Q(sum(minv[i, j] * sympy.Rational(a[j]) for j in range(n)))
            for i in range(n)
        )
        for i in (1,):
            assert aomoto_betti(alg.padded(), a, i) == aomoto_betti(
                changed.padded(), moved, i
            )


def test_presentation_validation():
    # a multiplication that is not graded-commutative is rejected
    bad = [[(Q(1),), (Q(1),)], [(Q(1),), (Q(0),)]]
    try:
        GradedAlgebraPresentation((1, 2, 1), [bad])
        assert False, "polarization failure must raise"
    except ValueError:
        pass
    try:
        GradedAlgebraPresentation((2, 2, 1), [[[(Q(0),)]]])
        assert False, "dims[0] != 1 must raise"
    except ValueError:
        pass
    zero = zero_multiplication_algebra((1, 3, 2))
    assert aomoto_betti(zero.padded(), (1, 1, 1), 1) == 2


def test_depth_zero_membership_checks_the_degree_and_the_point():
    alg = surface_algebra(1)  # dims (1, 2, 1)
    assert resonance_member(alg, (1, 0), 1, 0) is True
    assert resonance_member(alg, (Q(1, 2), 0), 0, 0) is True
    # depth 0 refuses what depth 1 refuses, with the same error
    for i, a in ((7, (0, 0)), (2, (0, 0)), (-1, (0, 0)), (1, (0, 0, 1)), (1, (0.5, 0))):
        errors = []
        for d in (0, 1):
            with pytest.raises((ValueError, TypeError)) as err:
                resonance_member(alg, a, i, d)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]
    with pytest.raises(ValueError, match="degree out of range: i = 7, need 0 <= i <= 1"):
        resonance_member(alg, (0, 0), 7, 0)
    with pytest.raises(ValueError, match="point length 3 != c_1 = 2"):
        resonance_member(alg, (0, 0, 1), 1, 0)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        resonance_member(alg, (0, 0, 1), 7, -1)


def _random_relations(rng, n):
    """Degree-two relations with fractional coefficients, some of them
    repeated, rescaled or combined from earlier ones."""
    pairs = list(itertools.combinations(range(n), 2))
    rels = []
    for _ in range(rng.randint(0, len(pairs) + 2)):
        if rels and rng.random() < 0.3:
            a, b = rng.choice(rels), rng.choice(rels)
            s, t = Q(rng.randint(-3, 3), rng.randint(1, 3)), Q(rng.randint(-3, 3))
            combined = {p: s * a.get(p, 0) + t * b.get(p, 0) for p in set(a) | set(b)}
            rels.append(combined)
        else:
            support = rng.sample(pairs, rng.randint(1, min(4, len(pairs))))
            rels.append({p: Q(rng.randint(-4, 4), rng.randint(1, 5)) for p in support})
    return rels


def test_quotient_algebra_matches_the_reduction_oracle():
    rng = random.Random(83)
    reduced = set()
    for _ in range(30):
        n = rng.randint(2, 7)
        rels = _random_relations(rng, n)
        alg = quotient_exterior_algebra(n, rels)
        assert alg == quotient_exterior_algebra_by_reduction(n, rels)
        reduced.add(alg.dims[2] < n * (n - 1) // 2)
    assert reduced == {True, False}


def test_graded_commutativity_refusals_keep_their_message():
    alg = _fractional_quotient()
    t = [list(per_gen) for per_gen in alg.mult[0]]
    square = [list(per_gen) for per_gen in t]
    square[1][1] = tuple(Q(1) for _ in t[1][1])  # e_2 e_2 != 0
    swapped = [list(per_gen) for per_gen in t]
    swapped[3][2] = t[2][3]  # e_4 e_3 = e_3 e_4 instead of its negative
    both = [list(per_gen) for per_gen in square]
    both[3][2] = t[2][3]
    for bad, pair in ((square, (2, 2)), (swapped, (3, 4)), (both, (2, 2))):
        assert commutativity_failure(bad) == pair
        with pytest.raises(ValueError) as err:
            GradedAlgebraPresentation(alg.dims, (bad,))
        j, l = pair
        assert str(err.value) == f"graded commutativity fails on basis pair ({j}, {l})"


def test_plain_integer_points_skip_coercion_but_not_validation():
    alg = surface_algebra(2)
    assert _integer_point(alg, (3, -1, 0, 2)) == ([3, -1, 0, 2], 1)
    assert _integer_point(alg, [Q(3, 2), 1, 0, 2]) == ([3, 2, 0, 4], 2)
    for a in ((3, -1, 0, 2), (0, 0, 0, 0), (1, 0, 2, 0)):
        as_fractions = tuple(Q(x) for x in a)
        for i in (0, 1):
            assert aomoto_betti(alg, a, i) == aomoto_betti(alg, as_fractions, i)
    for bad in ((1.0, 0, 0, 0), (True, 0, 0, 0), (1, 0, False, 0)):
        with pytest.raises(TypeError):
            aomoto_betti(alg, bad, 1)
    # a float is refused before the length is looked at, as before
    with pytest.raises(TypeError):
        aomoto_betti(alg, (1.0, 0), 1)
    with pytest.raises(ValueError, match="point length 2 != c_1 = 4"):
        aomoto_betti(alg, (1, 0), 1)


def _algebra_json(alg):
    """The `--algebra` input shape of a presentation."""
    return {
        "dims": list(alg.dims),
        "mult": [
            {
                "deg": i,
                "table": [
                    [[str(x) for x in vec] for vec in per_gen] for per_gen in tensor
                ],
            }
            for i, tensor in enumerate(alg.mult, start=1)
        ],
    }


def test_json_round_trip():
    alg = surface_algebra(2)
    again = codec.read_algebra(_algebra_json(alg))
    assert again.dims == alg.dims
    assert again.mult == alg.mult


def test_universal_evaluation_matches_direct():
    rng = random.Random(71)
    for alg in (_conf_t2_3(), _fractional_quotient().padded()):
        mats = universal_aomoto(alg)
        for _ in range(5):
            a = tuple(x / rng.randint(1, 4) for x in random_vector(rng, alg.n))
            direct = aomoto_matrices(alg, a).matrices
            via_symbols = evaluate_universal(mats, a)
            assert [tuple(map(tuple, m)) for m in via_symbols] == [
                tuple(map(tuple, m)) for m in direct
            ]


def test_betti_matches_sympy_ranks_in_every_degree():
    fractional = _fractional_quotient()
    assert any(
        x.denominator > 1 for per_gen in fractional.mult[0] for vec in per_gen for x in vec
    )
    rng = random.Random(83)

    def fraction():
        return Q(rng.randint(-6, 6), rng.randint(1, 5))

    u, v = _FRACTIONAL_PLANE
    on_plane = []
    for _ in range(4):
        s, t = fraction(), fraction()
        on_plane.append(tuple(s * x + t * y for x, y in zip(u, v)))
    assert all(aomoto_betti(fractional, a, 1) >= 1 for a in on_plane if any(a))
    for alg, extra in (
        (exterior_algebra(5).padded(), []),
        (surface_algebra(3).padded(), []),
        (s1s2_algebra(Q(3, 2)).padded(), []),
        (fractional, on_plane),
        (fractional.padded(), on_plane),
    ):
        # the zero point, and a point whose one nonzero coordinate is the
        # last: the row aomoto_betti leaves out in degree 1 is then the last
        points = [(Q(0),) * alg.n, (Q(0),) * (alg.n - 1) + (fraction() or Q(1),)] + extra
        points += [tuple(fraction() for _ in range(alg.n)) for _ in range(6)]
        for a in points:
            for i in range(alg.top):
                assert aomoto_betti(alg, a, i) == sympy_betti(alg, a, i), (alg, a, i)


def _inconsistent_json():
    """dims (1, 2, 1, 1): e1 e2 = w, then e1 w = u and e2 w = 0, so the
    degree 1 -> 2 -> 3 composition is the nonzero form x1^2 u."""
    return {
        "dims": [1, 2, 1, 1],
        "mult": [
            {"deg": 1, "table": [[["0"], ["1"]], [["-1"], ["0"]]]},
            {"deg": 2, "table": [[["1"]], [["0"]]]},
        ],
    }


def _cancelling_json():
    """dims (1, 2, 1, 2): as above, but e1 w = u1 - u2, so the composition
    x1^2 (u1 - u2) is nonzero while its two coordinates sum to zero."""
    return {
        "dims": [1, 2, 1, 2],
        "mult": [
            {"deg": 1, "table": [[["0"], ["1"]], [["-1"], ["0"]]]},
            {"deg": 2, "table": [[["1", "-1"]], [["0", "0"]]]},
        ],
    }


def test_inconsistent_presentation_is_refused_at_construction(tmp_path, capsys):
    message = "inconsistent presentation: symbolic composition at degree 1 is nonzero"
    for data in (_inconsistent_json(), _cancelling_json()):
        with pytest.raises(InconsistentPresentation) as err:
            codec.read_algebra(data)
        assert str(err.value) == message

    algebra = tmp_path / "alg.json"
    algebra.write_text(json.dumps(_inconsistent_json()))
    origin = tmp_path / "a.json"
    origin.write_text(json.dumps(["0", "0"]))
    code = main(["aomoto", "betti", "--algebra", str(algebra), "--point", str(origin)])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "precondition"


def _non_commutative_json():
    """dims (1, 2, 1): e1 e2 = e2 e1 = w, where graded commutativity wants
    e2 e1 = -w."""
    return {"dims": [1, 2, 1], "mult": [{"deg": 1, "table": [[["0"], ["1"]], [["1"], ["0"]]]}]}


def test_non_commutative_algebra_is_a_parse_error(tmp_path, capsys):
    algebra = tmp_path / "alg.json"
    algebra.write_text(json.dumps(_non_commutative_json()))
    origin = tmp_path / "a.json"
    origin.write_text(json.dumps(["0", "0"]))
    message = "bad algebra: graded commutativity fails on basis pair (1, 2)"
    for argv in (["betti"], ["member", "--depth", "1"]):
        argv = ["aomoto", *argv, "--algebra", str(algebra), "--point", str(origin)]
        assert main(argv) == 3
        out = json.loads(capsys.readouterr().out)
        assert out == {"error": {"type": "parse", "message": message}}


def test_a_presentation_stores_dims_and_tensors_only():
    cases = (
        (_fractional_quotient(), _FRACTIONAL_PLANE),
        (surface_algebra(2).padded(), ((1, 0, 0, 0), (0, 0, 1, 0))),
    )
    for alg, plane in cases:
        assert type(alg).__slots__ == ("dims", "tensors")
        assert not hasattr(alg, "__dict__")
        dims, tensors = alg.dims, alg.tensors
        snapshot = copy.deepcopy((dims, tensors))
        a = (1,) + (0,) * (alg.n - 1)
        for i in range(alg.top):
            aomoto_betti(alg, a, i)
        aomoto_matrices(alg, a)
        universal_aomoto(alg)
        isotropy_obstruction(alg, plane)
        assert len(alg.mult) == alg.top - 1
        assert alg.dims is dims and alg.tensors is tensors
        assert (alg.dims, alg.tensors) == snapshot
        for twin in (pickle.loads(pickle.dumps(alg)), copy.deepcopy(alg)):
            assert (twin.dims, twin.tensors) == snapshot
            assert twin == alg and hash(twin) == hash(alg)


def test_evaluation_leaves_equality_and_hash_alone():
    alg = _conf_t2_3()
    aomoto_betti(alg, (1, -1, 0, 1, -1, 0), 1)
    aomoto_matrices(alg.padded(), (0,) * 6)
    fresh = _conf_t2_3()
    assert alg == fresh and fresh == alg
    assert hash(alg) == hash(fresh)
    assert (alg.dims, alg.mult) == (fresh.dims, fresh.mult)
    assert alg.padded() == fresh.padded()


def test_zero_dimensional_pieces_keep_their_empty_rows():
    # each matrix has one row per target basis element, even when the
    # source or the target piece is zero-dimensional
    empty_source = GradedAlgebraPresentation((1, 0, 2), [()])
    assert aomoto_matrices(empty_source, ()).matrices == ((), ((), ()))
    assert [aomoto_betti(empty_source, (), i) for i in (0, 1)] == [1, 0]
    assert universal_aomoto(empty_source) == [(), ((), ())]

    empty_target = GradedAlgebraPresentation((1, 2, 0), [(((), ()), ((), ()))])
    assert aomoto_matrices(empty_target, (3, -2)).matrices == (((3,), (-2,)), ())
    assert [aomoto_betti(empty_target, (3, -2), i) for i in (0, 1)] == [0, 1]
    assert [aomoto_betti(empty_target, (0, 0), i) for i in (0, 1)] == [1, 2]
    assert universal_aomoto(empty_target) == [(((1, 0),), ((0, 1),)), ()]

    padded = exterior_algebra(2).padded()
    assert padded.dims == (1, 2, 1, 0)
    assert aomoto_matrices(padded, (3, -2)).matrices == (
        ((3,), (-2,)),
        ((2, 3),),
        (),
    )
    assert [aomoto_betti(padded, (3, -2), i) for i in (0, 1, 2)] == [0, 0, 0]
    assert [aomoto_betti(padded, (0, 0), i) for i in (0, 1, 2)] == [1, 2, 1]
    assert universal_aomoto(padded) == [
        (((1, 0),), ((0, 1),)),
        (((0, -1), (1, 0)),),
        (),
    ]


def _dense_obstruction(alg, basis):
    """isotropy_obstruction recomputed from alg.mult: each product
    u * v = sum of u_j v_b e_j u_b as a dense Fraction vector."""
    tensor = alg.mult[0]
    terms = list(itertools.product(range(alg.n), repeat=2))
    for (i, u), (j, v) in itertools.combinations(enumerate(basis, start=1), 2):
        product = tuple(
            sum((u[l] * v[b] * tensor[l][b][r] for l, b in terms), Q(0))
            for r in range(alg.dims[2])
        )
        if any(product):
            return i, j, product
    return None


def test_isotropy_obstruction_matches_dense_products():
    rng = random.Random(97)

    def fraction():
        return Q(rng.randint(-4, 4), rng.randint(1, 3))

    seen = set()
    for alg, plane in (
        (exterior_algebra(4), None),
        (_conf_t2_3(), None),
        (_fractional_quotient(), _FRACTIONAL_PLANE),
    ):
        for _ in range(40):
            anchor = tuple(fraction() for _ in range(alg.n))
            basis = []
            for _ in range(rng.randint(2, 4)):
                pick = rng.random()
                if pick < 0.4:
                    # a multiple of the anchor multiplies it to zero
                    s = fraction()
                    basis.append(tuple(s * x for x in anchor))
                elif pick < 0.6 and plane is not None:
                    s, t = fraction(), fraction()
                    basis.append(tuple(s * x + t * y for x, y in zip(*plane)))
                else:
                    basis.append(tuple(fraction() for _ in range(alg.n)))
            expected = _dense_obstruction(alg, basis)
            assert isotropy_obstruction(alg, basis) == expected, (alg.dims, basis)
            seen.add(expected[:2] if expected else None)
    # isotropic bases and first failures past the first pair both occur
    assert None in seen and (1, 2) in seen and len(seen) > 3
