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
from jumploci.simplicial import SimplicialComplex, full_simplex, induced, reduced_betti
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
    canonical_graphs,
    connectivity_by_cuts,
    meets_coordinate_piece,
    raag_r1_sweep,
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
    def answer(g):
        arr = raag_r1(g)
        return arr.subsets, arr.contains_origin

    cycle4 = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert answer(cycle4) == (((1, 3), (2, 4)), True)
    k4 = Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert answer(k4) == ((), True)
    # a disconnected graph: V itself is the only piece
    split = Graph(3, [(1, 2)])
    assert answer(split) == (((1, 2, 3),), True)
    assert answer(Graph(1)) == ((), True)
    # no vertices: the locus is empty, the origin included
    assert answer(Graph(0)) == ((), False)


def test_connectivity_values():
    assert Graph(3, [(1, 2), (2, 3)]).connectivity() == 1
    assert Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]).connectivity() == 2
    assert (
        Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]).connectivity()
        == 3
    )
    assert Graph(3, [(1, 2)]).connectivity() == 0
    assert Graph(0).connectivity() == 0
    assert Graph(1, []).connectivity() == 0
    assert Graph(2, [(1, 2)]).connectivity() == 1
    assert Graph(2).connectivity() == 0
    # breadth-first search finds 1-2-5-3 first, beside which no path from
    # 1 to 3 is left; the disjoint 1-2-6-3 and 1-4-5-3 appear only once the
    # flow through 2 and 5 is pushed back
    edges = [(1, 2), (1, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (5, 6)]
    assert Graph(6, edges).connectivity() == 2


def _graph_agrees_with_brute_force(n, edges):
    g = Graph(n, edges)
    arr = raag_r1(g)
    assert (arr.subsets, arr.contains_origin) == raag_r1_sweep(n, edges), (n, edges)
    assert g.connectivity() == connectivity_by_cuts(n, edges), (n, edges)


def test_graph_search_matches_brute_force_on_every_graph_up_to_six_vertices():
    for n in range(0, 7):
        for edges in canonical_graphs(n):
            _graph_agrees_with_brute_force(n, edges)


def _components_by_union_find(w, edges):
    parent = {v: v for v in w}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in edges:
        if a in parent and b in parent:
            parent[root(a)] = root(b)
    return len({root(v) for v in w})


def test_component_count_matches_brute_force_on_every_graph_up_to_six_vertices():
    # The count serves the degree-0 Betti number, the degree-0 links of the
    # toric search and raag_r1 (whose brute force is checked above).
    rng = random.Random(1731)
    for n in range(0, 7):
        for edges in canonical_graphs(n):
            k = SimplicialComplex(edges + [(v,) for v in range(1, n + 1)], n)
            tests = [toric._passing_test(k, 1, d) for d in range(1, n + 2)]
            masks = {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(6)}
            for mask in masks:
                w = {v for v in range(1, n + 1) if mask >> (v - 1) & 1}
                c = _components_by_union_find(w, edges)
                assert reduced_betti(induced(k, w), 0) == max(c - 1, 0), (edges, w)
                # in degree 1 each vertex whose closed star misses W adds 1,
                # and the empty face adds b~_0 of the induced graph on W
                near = set(w) | {a + b - v for a, b in edges for v in w if v in (a, b)}
                total = n - len(near) + max(c - 1, 0)
                assert [t(mask) for t in tests] == [total >= d for d in range(1, n + 2)]


def test_graph_search_matches_brute_force_on_seeded_graphs():
    rng = random.Random(2009)
    for n in range(7, 11):
        for p in (0.2, 0.4, 0.6, 0.8):
            for _ in range(3):
                pairs = itertools.combinations(range(1, n + 1), 2)
                _graph_agrees_with_brute_force(n, [e for e in pairs if rng.random() < p])


def test_connectivity_of_a_dense_random_graph():
    rng = random.Random(22)
    pairs = itertools.combinations(range(1, 23), 2)
    g = Graph(22, [e for e in pairs if rng.random() < 0.8])
    start = time.perf_counter()
    kappa = g.connectivity()
    elapsed = time.perf_counter() - start
    # 14 by trying every vertex cut, which took 15-16 s; counting disjoint
    # paths measured 0.02 s on a 2-vCPU Xeon
    assert kappa == 14
    assert elapsed < 5, elapsed


def test_connectivity_of_long_sparse_graphs(monkeypatch):
    # connectivity and the vanishing bound count disjoint paths and never
    # run the resonance search, so a call limit of 0 cannot refuse them,
    # although these graphs have tens of thousands of maximal disconnected sets
    monkeypatch.setattr(toric, "ORACLE_CALL_LIMIT", 0)
    cycle = [(i, i % 299 + 1) for i in range(1, 300)]
    start = time.perf_counter()
    for g, kappa in ((Graph(299, cycle), 2), (Graph(300, cycle + [(1, 300)]), 1)):
        assert g.connectivity() == kappa
        assert omega_vanishing_bound(g, kappa) is False
        assert omega_vanishing_bound(g, kappa + 1) is True
        with pytest.raises(ValueError, match="after 1 tests"):
            raag_r1(g)
    elapsed = time.perf_counter() - start
    # about 1 s on a 2-vCPU Xeon
    assert elapsed < 5, elapsed


def test_vanishing_bound_excludes_complete_graphs():
    k2 = Graph(2, [(1, 2)])
    assert omega_vanishing_bound(k2, 2) is False
    k1 = Graph(1, [])
    assert omega_vanishing_bound(k1, 1) is False
    path = Graph(3, [(1, 2), (2, 3)])
    assert omega_vanishing_bound(path, 1) is False
    assert omega_vanishing_bound(path, 2) is True
    k3 = Graph(3, [(1, 2), (1, 3), (2, 3)])
    assert omega_vanishing_bound(k3, 3) is False
    # Q^3 holds no 4-plane, so even a complete graph's invariant is empty
    assert omega_vanishing_bound(k3, 4) is True


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


def _plane_in_random_support(rng, n, r):
    """Integer rows spanning an r-plane inside a random coordinate subspace
    of Q^n, so that it meets coordinate pieces as often as it misses them."""
    support = sorted(rng.sample(range(n), rng.randint(r, n)))
    basis = []
    for row in random_subspace_basis(rng, len(support), r):
        vec = [0] * n
        for j, x in zip(support, row):
            vec[j] = int(x)
        basis.append(vec)
    return basis


def test_cover_membership_matches_the_sweeps_of_every_lower_degree():
    rng = random.Random(2011)
    answers = set()
    for n, dim in ((5, 2), (6, 2), (6, 3)):
        k = _random_complex(rng, n, dim)
        for i in (0, 1, 2):
            pieces = [w for j in range(i + 1) for w in toric_resonance_sweep(k, j, 1)[0]]
            for r in (1, 2, 3, 4):
                for _ in range(6):
                    basis = _plane_in_random_support(rng, n, r)
                    expect = not any(meets_coordinate_piece(basis, w, n) for w in pieces)
                    p = RationalSubspace.span(n, basis)
                    assert toric_omega_member(k, i, r, p) is expect, (k, i, basis)
                    answers.add((r, expect))
    assert answers == {(r, b) for r in (1, 2, 3, 4) for b in (True, False)}


def test_cover_membership_matches_the_per_degree_loci():
    # the union over degrees <= i, one pruned arrangement, against the test
    # of each degree's locus in turn, ranked piece by piece
    toric_resonance.cache_clear()
    toric._accumulated_resonance.cache_clear()
    rng = random.Random(2026)
    answers = set()
    loci = []
    for n in (5, 6, 7, 8, 9):
        for dim in (1, 2, 3):
            k = _random_complex(rng, n, dim)
            top = k.dim() + 1
            for i in range(top + 4):
                for r in (1, 2, 3, 4):
                    basis = _plane_in_random_support(rng, n, r)
                    expect = not any(
                        meets_coordinate_piece(basis, w, n)
                        for j in range(i + 1)
                        for w in toric_resonance(k, j, 1).subsets
                    )
                    p = RationalSubspace.span(n, basis)
                    assert toric_omega_member(k, i, r, p) is expect, (k, i, basis)
                    answers.add((i > top, expect))
            # T_K has no cells above dimension dim K + 1
            for j in range(top + 4):
                locus = toric_resonance(k, j, 1)
                loci.append(locus)
                if j > top:
                    assert (locus.subsets, locus.contains_origin) == ((), False)
    assert answers == {(above, b) for above in (True, False) for b in (True, False)}
    # cover queries pick the columns of their own union, not of these loci
    assert all(locus._columns is None for locus in loci)


def test_cover_membership_above_the_top_degree_answers_at_once():
    k = _path3()
    for basis, expect in (([(0, 1, 0)], True), ([(1, 0, 0)], False)):
        p = RationalSubspace.span(3, basis)
        start = time.perf_counter()
        assert toric_omega_member(k, 100_000, 1, p) is expect
        assert time.perf_counter() - start < 1
        assert toric_omega_member(k, 2, 1, p) is expect


def test_resonance_far_above_the_top_degree_is_empty_at_once():
    rng = random.Random(10)
    k = _random_complex(rng, 10, 2)
    start = time.perf_counter()
    locus = toric_resonance(k, 10**9, 1)
    assert time.perf_counter() - start < 1
    assert (locus.subsets, locus.contains_origin) == ((), False)


def test_meets_subspace_matches_the_rank_oracle():
    rng = random.Random(2017)
    kinds = ("all", "all but one", "single", "mixed")
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 8)
        vertices = range(1, n + 1)
        kind = rng.choice(kinds)
        if kind == "all":
            pieces = [vertices]
        elif kind == "all but one":
            pieces = [[v for v in vertices if v != u] for u in rng.sample(vertices, rng.randint(1, n))]
        elif kind == "single":
            pieces = [[v] for v in rng.sample(vertices, rng.randint(1, n))]
        else:
            pieces = [rng.sample(vertices, rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
        arr = CoordinateArrangement(n, pieces)
        r = rng.randint(0, min(4, n))
        basis = _plane_in_random_support(rng, n, r)
        p = RationalSubspace.span(n, basis)
        expect = any(meets_coordinate_piece(basis, w, n) for w in arr.subsets)
        twins = [pickle.loads(pickle.dumps(arr)), copy.deepcopy(arr)]
        assert arr.meets_subspace(p) is expect, (arr, basis)
        # copies taken before and after the first query, which picks the columns
        twins += [pickle.loads(pickle.dumps(arr)), copy.deepcopy(arr)]
        for twin in twins:
            assert twin == arr and hash(twin) == hash(arr) and repr(twin) == repr(arr)
            assert twin.meets_subspace(p) is expect
        seen.add((kind, r > 0, expect))
    # P = 0 meets no piece; a P != 0 both meets and misses every kind of
    # piece, except W = V, which every P != 0 meets
    want = {(kind, False, False) for kind in kinds}
    want |= {(kind, True, b) for kind in kinds for b in (True, False)}
    assert seen == want - {("all", True, False)}


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


def _cycle_searches(n):
    """Degree-1 resonance of C_n, by the toric search and by the graph's."""
    return (
        lambda: toric_resonance.__wrapped__(_cycle(n), 1, 1),
        lambda: raag_r1(Graph(n, _cycle(n).one_skeleton_edges())),
    )


def test_cycle_ladder():
    # the degree-1 pieces of C_n are V minus two non-adjacent vertices
    for n in (12, 14):
        graph = Graph(n, _cycle(n).one_skeleton_edges())
        assert toric_resonance(_cycle(n), 1, 1) == raag_r1(graph)
    for n in (12, 18, 24, 30):
        for search in _cycle_searches(n):
            start = time.perf_counter()
            arr = search()
            elapsed = time.perf_counter() - start
            assert len(arr) == n * (n - 3) // 2
            assert all(len(w) == n - 2 for w in arr)
            # C_30 measured 0.03-0.06 s; the level-wise search, and the
            # sweep over all 2^n vertex sets, would take hours
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
    # C_24 needs 2,784 tests, C_14 599
    for search in _cycle_searches(24):
        with pytest.raises(ValueError, match="after 1001 tests"):
            search()
    # the count includes the tests of the empty and the full vertex set
    for search in _cycle_searches(14):
        monkeypatch.setattr(toric, "ORACLE_CALL_LIMIT", 599)
        assert len(search()) == 77
        monkeypatch.setattr(toric, "ORACLE_CALL_LIMIT", 598)
        with pytest.raises(
            ValueError,
            match="^toric resonance search refused after 599 tests of vertex "
            "sets, above the limit of 598$",
        ):
            search()


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


def test_meets_subspace_without_pieces_or_dimension():
    origin_only = CoordinateArrangement(3, [], contains_origin=True)
    empty = CoordinateArrangement(3, [], contains_origin=False)
    full = CoordinateArrangement(3, [(1, 2, 3)])
    plane = RationalSubspace.span(3, [(1, 0, 0), (0, 1, 1)])
    zero = RationalSubspace.zero(3)
    for arr in (origin_only, empty):
        assert arr.meets_subspace(plane) is False
        assert arr.meets_subspace(zero) is False
    assert full.meets_subspace(zero) is False
    assert full.meets_subspace(plane) is True
    assert CoordinateArrangement(0, []).meets_subspace(RationalSubspace.zero(0)) is False
    # no pieces: codimension n; the subsets come back as sorted vertex tuples
    assert (origin_only.codim(), empty.codim(), full.codim()) == (3, 3, 0)
    assert CoordinateArrangement(9, [(9, 1, 4), (2,)]).subsets == ((1, 4, 9), (2,))


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
