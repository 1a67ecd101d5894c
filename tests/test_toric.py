"""Coordinate-subspace loci of toric complexes, plus graph invariants."""

import copy
import itertools
import pickle
import random
import time
from fractions import Fraction

import pytest

from jumploci import toric
from jumploci.qlinalg import RationalSubspace
from jumploci.simplicial import SimplicialComplex, full_simplex
from jumploci.toric import (
    CoordinateArrangement,
    Graph,
    omega_vanishing_bound,
    raag_r1,
    toric_cv,
    toric_omega_member,
    toric_resonance,
)

from oracles import (
    all_complexes,
    meets_rank,
    random_subspace_basis,
    toric_resonance_levelwise,
    toric_resonance_sweep,
)

Q = Fraction


def _path3():
    return SimplicialComplex([(1, 2), (2, 3)], 3)


def test_path_resonance_is_the_middle_hyperplane():
    arr = toric_resonance(_path3(), 1, 1)
    assert arr.subsets == ((1, 3),)
    assert arr.contains_origin
    # and nothing survives at depth two
    assert toric_resonance(_path3(), 1, 2).subsets == ()


def test_path_cover_membership():
    k = _path3()
    diagonal = RationalSubspace.span(3, [(1, 1, 1)])
    assert toric_omega_member(k, 1, 1, diagonal) is True
    # a line inside the resonance hyperplane fails
    bad = RationalSubspace.span(3, [(1, 0, 0)])
    assert toric_omega_member(k, 1, 1, bad) is False
    # every 2-plane in Q^3 meets a hyperplane nontrivially
    rng = random.Random(2)
    g = Graph(3, [(1, 2), (2, 3)])
    assert omega_vanishing_bound(g, 2) is True
    for _ in range(20):
        p = RationalSubspace.span(3, random_subspace_basis(rng, 3, 2))
        assert toric_omega_member(k, 1, 2, p) is False


def test_star_and_path4_trees():
    star = SimplicialComplex([(1, 2), (1, 3), (1, 4)], 4)
    assert toric_resonance(star, 1, 1).subsets == ((2, 3, 4),)
    path4 = SimplicialComplex([(1, 2), (2, 3), (3, 4)], 4)
    assert toric_resonance(path4, 1, 1).subsets == ((1, 2, 4), (1, 3, 4))


def test_full_torus_has_no_jumps():
    k = full_simplex(3)
    for i in (1, 2):
        assert toric_resonance(k, i, 1).subsets == ()
    rng = random.Random(8)
    for r in (1, 2, 3):
        for _ in range(10):
            p = RationalSubspace.span(3, random_subspace_basis(rng, 3, r))
            assert toric_omega_member(k, 1, r, p) is True


def test_raag_resonance_known_graphs():
    cycle4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert raag_r1(cycle4).subsets == ((1, 3), (2, 4))
    k4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert raag_r1(k4).subsets == ()
    split = Graph(3, [(1, 2)])
    assert raag_r1(split).subsets == ((1, 2, 3),)


def test_connectivity_values():
    assert Graph(3, [(1, 2), (2, 3)]).connectivity() == 1
    assert Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]).connectivity() == 2
    assert (
        Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]).connectivity()
        == 3
    )
    assert Graph(3, [(1, 2)]).connectivity() == 0
    assert Graph(1, []).connectivity() == 0
    assert Graph(2, [(1, 2)]).connectivity() == 1


def test_vanishing_bound_excludes_complete_graphs():
    k2 = Graph(2, [(1, 2)])
    assert omega_vanishing_bound(k2, 2) is False
    k1 = Graph(1, [])
    assert omega_vanishing_bound(k1, 1) is False
    path = Graph(3, [(1, 2), (2, 3)])
    assert omega_vanishing_bound(path, 1) is False
    assert omega_vanishing_bound(path, 2) is True


def test_cv_equals_resonance_for_toric_complexes():
    # toric loci are unions of coordinate subtori, so both computations
    # must name the same coordinate subsets in every degree
    rng = random.Random(31)
    pool = list(all_complexes(4, SimplicialComplex))
    for k in rng.sample(pool, 25):
        for i in (1, 2):
            assert toric_cv(k, i, 1).subsets == toric_resonance(k, i, 1).subsets


def test_validation():
    k = _path3()
    plane = RationalSubspace.span(3, [(1, 0, 0), (0, 1, 0)])
    try:
        toric_omega_member(k, 1, 1, plane)
        assert False, "plane dimension must equal r"
    except ValueError:
        pass
    try:
        SimplicialComplex([(1, 2)], 3) and toric_resonance(
            SimplicialComplex([(1, 2)], 3), 1, 1
        )
        assert False, "ambient vertex missing from the complex must raise"
    except ValueError:
        pass


def _agrees_with_sweep(k, i, d):
    arr = toric_resonance(k, i, d)
    assert (arr.subsets, arr.contains_origin) == toric_resonance_sweep(k, i, d), (k, i, d)


def test_search_matches_sweep_on_every_complex_up_to_four_vertices():
    for n in range(0, 5):
        for k in all_complexes(n, SimplicialComplex):
            for i, d in itertools.product(range(4), range(1, 4)):
                _agrees_with_sweep(k, i, d)


def _random_complex(rng, n, dim):
    """Random facets of dimension dim (some of them shrunk) on n vertices,
    plus every vertex."""
    facets = [(v,) for v in range(1, n + 1)]
    for _ in range(rng.randint(n // 2, 2 * n)):
        facets.append(rng.sample(range(1, n + 1), rng.randint(2, dim + 1)))
    return SimplicialComplex(facets, n)


def test_search_matches_sweep_on_random_complexes():
    rng = random.Random(2009)
    for n in (6, 7, 8, 9):
        for dim in (2, 3):
            k = _random_complex(rng, n, dim)
            for i, d in ((1, 1), (1, 2), (2, 3), (3, 2)):
                _agrees_with_sweep(k, i, d)


def test_cover_membership_matches_the_sweeps_of_every_lower_degree():
    rng = random.Random(2011)
    answers = set()
    for n, dim in ((5, 2), (6, 2), (6, 3)):
        k = _random_complex(rng, n, dim)
        for i in (0, 1, 2):
            pieces = [w for j in range(i + 1) for w in toric_resonance_sweep(k, j, 1)[0]]
            for r in (1, 2, 3):
                for _ in range(6):
                    # a plane inside a random coordinate subspace, so that
                    # both answers occur
                    support = sorted(rng.sample(range(n), rng.randint(r, n)))
                    basis = []
                    for row in random_subspace_basis(rng, len(support), r):
                        vec = [0] * n
                        for j, x in zip(support, row):
                            vec[j] = x
                        basis.append(vec)
                    expect = not any(
                        meets_rank(basis, [[int(j + 1 == v) for j in range(n)] for v in w], n)
                        for w in pieces
                    )
                    p = RationalSubspace.span(n, basis)
                    assert toric_omega_member(k, i, r, p) is expect, (k, i, basis)
                    answers.add(expect)
    assert answers == {True, False}


def test_search_matches_sweep_on_a_sample_of_complexes_on_five_vertices():
    pool = list(all_complexes(5, SimplicialComplex))
    for k in random.Random(2013).sample(pool, 500):
        for i, d in itertools.product(range(4), range(1, 4)):
            _agrees_with_sweep(k, i, d)


def test_search_matches_levelwise_search_on_ten_to_fourteen_vertices():
    rng = random.Random(2003)
    for n in range(10, 15):
        k = _random_complex(rng, n, 2 + n % 2)
        for i, d in itertools.product(range(4), range(1, 4)):
            arr = toric_resonance(k, i, d)
            expect = toric_resonance_levelwise(k, i, d)
            assert (arr.subsets, arr.contains_origin) == expect, (k, i, d)


def _cycle(n):
    return SimplicialComplex([(v, v % n + 1) for v in range(1, n + 1)], n)


def test_cycle_ladder():
    # the degree-1 pieces of C_n are V minus two non-adjacent vertices
    for n in (12, 14):
        graph = Graph(n, _cycle(n).one_skeleton_edges())
        assert toric_resonance(_cycle(n), 1, 1) == raag_r1(graph)
    for n in (12, 18, 24, 30):
        start = time.perf_counter()
        arr = toric_resonance.__wrapped__(_cycle(n), 1, 1)
        elapsed = time.perf_counter() - start
        assert len(arr) == n * (n - 3) // 2
        assert all(len(w) == n - 2 for w in arr)
        # C_30 measured 0.03-0.05 s; the level-wise search would take hours
        assert elapsed < 5, (n, elapsed)


def test_joint_generation_finds_both_borders_of_a_down_closed_family():
    rng = random.Random(1996)
    for _ in range(300):
        n = rng.randint(1, 8)
        full = (1 << n) - 1
        tops = [rng.randrange(full) for _ in range(rng.randint(1, 6))]

        def passes(w):
            return any(not w & ~top for top in tops)

        maximal, failed = toric._joint_generation(n, passes)
        family = [w for w in range(full + 1) if passes(w)]
        expect_max = {w for w in family if not any(w != v and not w & ~v for v in family)}
        expect_min = {
            w for w in range(full + 1)
            if w not in family and all(w ^ b in family for b in toric._bits(w))
        }
        assert sorted(maximal) == sorted(expect_max)
        assert sorted(failed) == sorted(expect_min)


def test_search_refuses_above_the_oracle_call_limit(monkeypatch):
    monkeypatch.setattr(toric, "ORACLE_CALL_LIMIT", 1000)
    with pytest.raises(ValueError, match="after 1001 tests"):
        toric_resonance.__wrapped__(_cycle(24), 1, 1)
    # C_24 needs 2,784 tests, C_14 599
    assert len(toric_resonance.__wrapped__(_cycle(14), 1, 1)) == 77


def test_search_shortcuts():
    # two isolated points: V itself passes in degree 1 and is the only piece
    points = SimplicialComplex([(1,), (2,)], 2)
    assert toric_resonance(points, 1, 1) == CoordinateArrangement(2, [(1, 2)])
    _agrees_with_sweep(points, 1, 1)
    # a hollow triangle has three 1-faces: the origin passes at depth 3 in
    # degree 2, V passes at depth 1 (the circle), and ∅ fails at depth 4
    circle = SimplicialComplex([(1, 2), (2, 3), (1, 3)], 3)
    assert toric_resonance(circle, 2, 1).subsets == ((1, 2, 3),)
    empty = toric_resonance(circle, 2, 4)
    assert (empty.subsets, empty.contains_origin) == ((), False)
    for d in (1, 3, 4):
        _agrees_with_sweep(circle, 2, d)


def test_value_classes_survive_pickle_and_deepcopy():
    k = SimplicialComplex([(1, 2), (2, 3), (3, 4), (1, 4), (2, 4, 5)], 5)
    values = [
        k,
        SimplicialComplex((), 0),
        Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
        toric_resonance(k, 1, 1),
        CoordinateArrangement(3, [], contains_origin=False),
    ]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
    # the uncached computation on an unpickled complex gives the same locus
    twin = pickle.loads(pickle.dumps(k))
    for i, d in ((1, 1), (2, 1), (2, 2)):
        assert toric_resonance.__wrapped__(twin, i, d) == toric_resonance(k, i, d)
