"""Simplicial homology against an independent boundary-matrix oracle."""

import itertools
import random
import time

import pytest

from jumploci import simplicial
from jumploci.simplicial import (
    FACE_LIMIT,
    ComplexTooLarge,
    SimplicialComplex,
    full_simplex,
    induced,
    link_faces,
    reduced_betti,
    reduced_betti_faces,
)

from oracles import (
    all_complexes,
    euler_characteristic_reduced,
    link_in_induced,
    reduced_betti_all,
    simplicial_betti_sympy,
)


def _faces_by_dim(faces):
    top = max(len(f) for f in faces) - 1
    return [
        sorted(tuple(sorted(f)) for f in faces if len(f) == d + 1)
        for d in range(top + 1)
    ]


def test_known_betti_numbers():
    # a full simplex is contractible
    assert reduced_betti_all(full_simplex(4)) == {-1: 0, 0: 0, 1: 0, 2: 0, 3: 0}
    # the boundary of a tetrahedron is a 2-sphere
    sphere = SimplicialComplex(
        [f for f in itertools.combinations((1, 2, 3, 4), 3)], 4
    )
    assert reduced_betti(sphere, 0) == 0
    assert reduced_betti(sphere, 1) == 0
    assert reduced_betti(sphere, 2) == 1
    # a hollow square is a circle
    circle = SimplicialComplex([(1, 2), (2, 3), (3, 4), (1, 4)], 4)
    assert reduced_betti(circle, 0) == 0
    assert reduced_betti(circle, 1) == 1
    # three isolated points
    pts = SimplicialComplex([(1,), (2,), (3,)], 3)
    assert reduced_betti(pts, 0) == 2
    # the empty complex carries its single reduced class in degree -1
    empty = SimplicialComplex((), 0)
    assert reduced_betti(empty, -1) == 1


def test_betti_matches_sympy_exhaustively_small():
    for n in range(0, 5):
        for k in all_complexes(n, SimplicialComplex):
            expect = simplicial_betti_sympy(_faces_by_dim(k.faces))
            got = reduced_betti_all(k)
            for d, b in expect.items():
                assert got.get(d, 0) == b, (k, d)


def _random_complex(rng, n):
    """Random facets of one to four vertices on n vertices.  Some vertices
    stay isolated, and half the complexes are split into two vertex blocks
    that no face joins."""
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    isolated = verts[: rng.randint(0, 2)]
    rest = verts[len(isolated):]
    cut = rng.randint(2, len(rest) - 2) if rng.random() < 0.5 else len(rest)
    facets = [(v,) for v in isolated]
    for block in (rest[:cut], rest[cut:]):
        for _ in range(rng.randint(0, 2 * len(block))):
            facets.append(rng.sample(block, rng.randint(1, min(4, len(block)))))
    return SimplicialComplex(facets, n)


def test_betti_matches_sympy_on_random_complexes():
    rng = random.Random(4111)
    complexes = [SimplicialComplex((), 7)]
    complexes += [_random_complex(rng, rng.randint(6, 12)) for _ in range(60)]
    assert any(k.dim() == 3 for k in complexes)
    for k in complexes:
        expect = simplicial_betti_sympy(_faces_by_dim(k.faces))
        for d in range(-1, k.dim() + 2):
            assert reduced_betti(k, d) == expect.get(d, 0), (k, d)


def test_link_betti_matches_sympy_the_way_the_toric_search_asks():
    # lk_{K_W}(sigma) built from lk_K(sigma) as toric_resonance builds it,
    # against the link taken from the face sets directly
    rng = random.Random(4127)
    for _ in range(80):
        n = rng.randint(6, 10)
        k = _random_complex(rng, n)
        faces = k.face_masks()
        sigma = rng.choice([f for f in faces if f.bit_count() <= 2])
        link = tuple(f ^ sigma for f in faces if f & sigma == sigma)
        w = sum(1 << v for v in range(n) if not sigma >> v & 1 and rng.random() < 0.7)
        sigma_set = frozenset(v + 1 for v in range(n) if sigma >> v & 1)
        w_set = frozenset(v + 1 for v in range(n) if w >> v & 1)
        expect = simplicial_betti_sympy(_faces_by_dim(
            [f - sigma_set for f in k.faces if sigma_set <= f and f - sigma_set <= w_set]
        ))
        sub = link_faces(link, w)
        for deg in range(-1, 3):
            assert reduced_betti_faces(sub, deg) == expect.get(deg, 0), (k, sigma, w, deg)


def test_euler_characteristic_is_alternating_sum():
    rng = random.Random(17)
    pool = list(all_complexes(4, SimplicialComplex))
    for k in rng.sample(pool, 20):
        betti = reduced_betti_all(k)
        assert euler_characteristic_reduced(k) == sum(
            (-1) ** d * b for d, b in betti.items()
        )


def test_induced_and_link():
    k = SimplicialComplex([(1, 2, 3), (3, 4)], 4)
    sub = induced(k, (1, 2, 4))
    assert sub.has_face((1, 2))
    assert not sub.has_face((1, 4))
    lk = link_in_induced(k, (3,), (1, 2, 4))
    assert lk.has_face((1, 2))
    assert lk.has_face((4,))
    assert not lk.has_face((3,))
    try:
        link_in_induced(k, (3,), (2, 3))
        assert False, "sigma overlapping W must raise"
    except ValueError:
        pass


def test_skeleton_and_validation():
    k = full_simplex(4)
    sk = k.skeleton(1)
    assert sk.dim() == 1
    assert len(sk.one_skeleton_edges()) == 6
    try:
        SimplicialComplex([(1, 5)], 4)
        assert False, "vertex beyond the ambient range must raise"
    except ValueError:
        pass


def test_betti_far_above_the_dimension_is_zero_at_once():
    rng = random.Random(10)
    facets = [rng.sample(range(1, 11), 3) for _ in range(15)]
    k = SimplicialComplex(facets + [(v,) for v in range(1, 11)], 10)
    assert k.dim() == 2
    start = time.perf_counter()
    assert reduced_betti(k, 10**9) == 0
    assert reduced_betti_faces(k.face_masks(), 10**9) == 0
    assert time.perf_counter() - start < 1


def test_complexes_with_too_many_faces_are_refused_before_building(monkeypatch):
    # one facet on 24 vertices has 2^24 subsets, and a refusal builds none
    assert FACE_LIMIT < 1 << 24
    start = time.perf_counter()
    with pytest.raises(ComplexTooLarge, match="complex too large"):
        full_simplex(24)
    assert time.perf_counter() - start < 1
    # the bound sums 2^|F| over the maximal facets only
    monkeypatch.setattr(simplicial, "FACE_LIMIT", 64)
    facets = [(1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 2)]
    assert len(SimplicialComplex(facets).facets) == 2
    with pytest.raises(ComplexTooLarge, match="66 subsets"):
        SimplicialComplex(facets + [(11,)])


def test_a_large_edge_list_is_refused_at_once():
    # K_363: 65,703 edges of 4 subsets each.  The facets are pruned before
    # the bound is summed, and no two edges are compared, where comparing
    # every pair is quadratic in the edges
    edges = list(itertools.combinations(range(1, 364), 2))
    start = time.perf_counter()
    with pytest.raises(ComplexTooLarge, match="262812 subsets"):
        SimplicialComplex(edges)
    assert time.perf_counter() - start < 2
