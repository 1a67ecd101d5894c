"""Projective line arrangements: intersection lattice, degree-one
resonance components, certification."""

import itertools
import json
import random
import re
import time
from fractions import Fraction
from math import comb, gcd

import pytest
from oracles import (
    braid_component_equations,
    braid_scan,
    local_component_equations,
    multiple_points_by_fractions,
    points_without_jump,
    quotient_exterior_algebra_by_reduction,
    sympy_betti,
)

from jumploci import aomoto, arrangements, codec
from jumploci.aomoto import isotropy_obstruction
from jumploci.arrangements import (
    LINE_LIMIT,
    MultiplePoint,
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
from jumploci.cli import main
from jumploci.fixtures import run_fixture
from jumploci.qlinalg import RationalSubspace, SubspaceArrangement, intersection_dim

Q = Fraction

BRAID = ((1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 0, 1))

DELETED_B3 = (
    (1, 0, 0),
    (0, 1, 0),
    (1, -1, 0),
    (1, 1, 0),
    (1, 0, -1),
    (1, 0, 1),
    (0, 1, -1),
    (0, 1, 1),
)

NEAR_PENCIL = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, -1))

FULL_B3 = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, -1, 0),
    (1, 1, 0),
    (1, 0, -1),
    (1, 0, 1),
    (0, 1, -1),
    (0, 1, 1),
)

# B3 with the four lines x±y±z and three generic lines: 82 components
SIXTEEN = FULL_B3 + (
    (1, 1, 1),
    (1, 1, -1),
    (1, -1, 1),
    (1, -1, -1),
    (1, 2, 3),
    (2, -3, 5),
    (3, 5, -7),
)

# The (3,4)-multinet plane of B3, in the line order of FULL_B3 (x, y, z,
# x-y, x+y, x-z, x+z, y-z, y+z): spanned by u1 - u3 and u2 - u3 with
# u1 = 2e_x + e_{y+z} + e_{y-z}, u2 = 2e_y + e_{x+z} + e_{x-z} and
# u3 = 2e_z + e_{x+y} + e_{x-y}.
B3_MULTINET = ((2, 0, -2, -1, -1, 0, 0, 1, 1), (0, 2, -2, -1, -1, 1, 1, 0, 0))
# <e_x, e_y> on B3, not isotropic: e_x e_y is nonzero in A^2
E_X, E_Y = (1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0, 0)


def test_braid_intersection_points():
    arr = ProjLineArrangement(BRAID)
    pts = multiple_points(arr)
    triples = [p.lines for p in pts if p.multiplicity == 3]
    doubles = [p.lines for p in pts if p.multiplicity == 2]
    assert triples == [(1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)]
    assert doubles == [(1, 6), (2, 5), (3, 4)]


def test_pair_count_identity_on_seeded_arrangements():
    # every pair of lines meets in exactly one projective point, so the
    # multiplicities always satisfy sum C(m, 2) = C(n, 2)
    rng = random.Random(14)
    built = 0
    while built < 15:
        n = rng.randint(3, 6)
        forms = set()
        while len(forms) < n:
            f = tuple(rng.randint(-2, 2) for _ in range(3))
            if f == (0, 0, 0):
                continue
            try:
                ProjLineArrangement(tuple(forms) + (f,))
            except ValueError:
                continue
            forms.add(f)
        arr = ProjLineArrangement(tuple(sorted(forms)))
        pts = multiple_points(arr)
        assert sum(comb(p.multiplicity, 2) for p in pts) == comb(n, 2)
        built += 1


def _point_component(n, lines):
    return RationalSubspace.from_equations(n, local_component_equations(n, lines))


def test_braid_local_and_nonlocal_components():
    arr = ProjLineArrangement(BRAID)
    locals_ = local_components(arr)
    assert len(locals_.components) == 4
    assert all(c.dim == 2 for c in locals_.components)
    for lines in ((1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)):
        assert _point_component(6, lines) in locals_.components
    braids = braid_subarrangements(arr)
    assert len(braids) == 1
    assert braids[0].pairs == ((1, 6), (2, 5), (3, 4))
    expected = RationalSubspace.from_equations(
        6,
        [
            (1, 1, 1, 0, 0, 0),
            (1, 0, 0, 0, 0, -1),
            (0, 1, 0, 0, -1, 0),
            (0, 0, 1, -1, 0, 0),
        ],
    )
    assert braids[0].subspace == expected


def test_braid_resonance_arrangement():
    arr = ProjLineArrangement(BRAID)
    res = r1_arrangement(arr)
    assert len(res.components) == 5
    assert all(c.dim == 2 for c in res.components)
    for i, a in enumerate(res.components):
        for b in res.components[i + 1 :]:
            assert intersection_dim(a, b) == 0
    assert r1_completeness_note(arr) is None
    alg = os_algebra_deg2(arr)
    assert alg.dims == (1, 6, 11)


def test_deleted_b3_components():
    arr = ProjLineArrangement(DELETED_B3)
    pts = multiple_points(arr)
    assert [p.lines for p in pts if p.multiplicity == 4] == [(1, 2, 3, 4)]
    assert [p.lines for p in pts if p.multiplicity == 3] == [
        (1, 5, 6),
        (2, 7, 8),
        (3, 5, 7),
        (3, 6, 8),
        (4, 5, 8),
        (4, 6, 7),
    ]
    locals_ = local_components(arr)
    assert len(locals_.components) == 7
    assert sorted(c.dim for c in locals_.components) == [2, 2, 2, 2, 2, 2, 3]
    assert _point_component(8, (1, 2, 3, 4)) in locals_.components
    braids = braid_subarrangements(arr)
    assert [b.pairs for b in braids] == [
        ((1, 7), (3, 6), (4, 5)),
        ((1, 8), (3, 5), (4, 6)),
        ((2, 5), (3, 8), (4, 7)),
        ((2, 6), (3, 7), (4, 8)),
        ((3, 4), (5, 6), (7, 8)),
    ]
    res = r1_arrangement(arr)
    assert len(res.components) == 12
    assert res.codim() == 5
    assert r1_completeness_note(arr) is None
    assert os_algebra_deg2(arr).dims == (1, 8, 19)


def test_near_pencil_and_generic():
    pencil = ProjLineArrangement(NEAR_PENCIL)
    pts = multiple_points(pencil)
    assert [p.lines for p in pts if p.multiplicity >= 3] == [(2, 3, 4)]
    res = r1_arrangement(pencil)
    assert len(res.components) == 1
    assert res.components[0] == RationalSubspace.from_equations(
        4, [(0, 1, 1, 1), (1, 0, 0, 0)]
    )
    assert os_algebra_deg2(pencil).dims == (1, 4, 5)

    generic = ProjLineArrangement(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert all(p.multiplicity == 2 for p in multiple_points(generic))
    assert r1_arrangement(generic).is_trivial()


def test_coarse_cover_bounds():
    generic = ProjLineArrangement(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for r in (1, 2, 3):
        assert omega_bounds(generic, r) == "full"
    pencil = ProjLineArrangement(NEAR_PENCIL)
    assert omega_bounds(pencil, 2) == "undetermined"
    assert omega_bounds(pencil, 3) == "empty"
    try:
        omega_bounds(pencil, 0)
        assert False, "rank below one must raise"
    except ValueError:
        pass


def test_completeness_note_fires_on_rich_arrangements():
    assert r1_completeness_note(ProjLineArrangement(FULL_B3)) is not None
    assert r1_completeness_note(ProjLineArrangement(BRAID)) is None
    assert r1_completeness_note(ProjLineArrangement(NEAR_PENCIL)) is None


def test_resonance_is_deterministic_across_seeds():
    arr = ProjLineArrangement(BRAID)
    assert r1_arrangement(arr, seed=0) == r1_arrangement(arr, seed=99)


def test_form_validation():
    try:
        ProjLineArrangement(((0, 0, 0), (1, 0, 0)))
        assert False, "zero form must raise"
    except ValueError:
        pass
    try:
        ProjLineArrangement(((1, 0, 0), (2, 0, 0)))
        assert False, "proportional forms must raise"
    except ValueError:
        pass
    try:
        ProjLineArrangement(((1, 0), (0, 1)))
        assert False, "forms must have three coefficients"
    except ValueError:
        pass
    # coordinates are exact rationals: floats and booleans are refused
    with pytest.raises(TypeError):
        ProjLineArrangement([(0.1, 1, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(TypeError):
        ProjLineArrangement([(True, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(TypeError):
        MultiplePoint((0.5, 1, 0), (1, 2))


def _random_rich_arrangements(seed, count):
    """Seeded arrangements with small coefficients, so rich in triple points."""
    rng = random.Random(seed)
    for _ in range(count):
        n, forms = rng.randint(6, 9), []
        while len(forms) < n:
            f = tuple(rng.randint(-1, 1) for _ in range(3))
            try:
                ProjLineArrangement(forms + [f])
            except ValueError:
                continue
            forms.append(f)
        yield tuple(forms)


def test_spans_match_the_equation_oracles():
    # every reported component also passes the sampled rank check
    named = (BRAID, DELETED_B3, FULL_B3, NEAR_PENCIL)
    braids_seen = components_sampled = 0
    rng = random.Random(11)
    for forms in named + tuple(_random_rich_arrangements(3, 30)):
        arr = ProjLineArrangement(forms)
        n = arr.n
        expected = {
            RationalSubspace.from_equations(n, local_component_equations(n, p.lines))
            for p in multiple_points(arr)
            if p.multiplicity >= 3
        }
        assert set(local_components(arr).components) == expected
        for b in braid_subarrangements(arr):
            eqs = braid_component_equations(n, b.pairs)
            assert b.subspace == RationalSubspace.from_equations(n, eqs)
            braids_seen += 1
        for c in r1_arrangement(arr).components:
            assert points_without_jump(os_algebra_deg2(arr), c, rng) == []
            components_sampled += 1
    assert braids_seen == 34
    assert components_sampled > braids_seen


def _hub_forms(rng, n):
    """n small-integer forms: the six joins of four hub points in general
    position, then lines through one hub each, so rich in triple points."""
    cross = arrangements._cross
    while True:
        hubs = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(4)]
        forms = [cross(p, q) for p, q in itertools.combinations(hubs, 2)]
        try:
            ProjLineArrangement(forms)  # three hubs on a line repeat a join
            break
        except ValueError:
            continue
    while len(forms) < n:
        f = cross(hubs[len(forms) % 4], tuple(rng.randint(-4, 4) for _ in range(3)))
        try:
            ProjLineArrangement(forms + [f])
        except ValueError:
            continue
        forms.append(f)
    rng.shuffle(forms)
    return forms


def _primitive_forms(bound):
    """The primitive integer forms with entries in {-bound, ..., bound},
    first nonzero entry positive: 13 for bound 1, 49 for bound 2."""
    return [
        f
        for f in itertools.product(range(-bound, bound + 1), repeat=3)
        if f > (0, 0, 0) and gcd(*f) == 1
    ]


def _braid_inputs():
    """303 seeded arrangements: 6-13 lines of the 13 primitive forms with
    entries in {-1, 0, 1}, 8-14 of the 49 in {-2, ..., 2}, hubs on 9-12
    lines, and the named B3, deleted B3 and SIXTEEN."""
    rng = random.Random(21)
    for bound, low, high, count in ((1, 6, 13, 150), (2, 8, 14, 130)):
        pool = _primitive_forms(bound)
        for _ in range(count):
            yield rng.sample(pool, rng.randint(low, high))
    for _ in range(20):
        yield _hub_forms(rng, rng.randint(9, 12))
    yield from (FULL_B3, DELETED_B3, SIXTEEN)


def test_braids_are_the_complete_quadrangles_the_six_line_scan_finds():
    seen = 0
    for forms in _braid_inputs():
        arr = ProjLineArrangement(forms)
        n = arr.n
        expected = [
            (lines, pairs, RationalSubspace.from_equations(n, braid_component_equations(n, pairs)))
            for lines, pairs in braid_scan(n, multiple_points(arr))
        ]
        got = [(b.lines, b.pairs, b.subspace) for b in braid_subarrangements(arr)]
        assert got == expected, forms
        seen += len(got)
    assert seen > 1000


def test_isotropy_certificate_on_b3():
    arr = ProjLineArrangement(FULL_B3)
    alg = os_algebra_deg2(arr)
    comps = r1_arrangement(arr).components
    assert len(comps) == 18
    for c in comps:
        assert isotropy_obstruction(alg, c.basis) is None
    # the multinet plane r1_arrangement misses is isotropic too
    assert isotropy_obstruction(alg, B3_MULTINET) is None
    # the coordinate plane is not, and its product is reported exactly,
    # with the first nonzero pair and the scaling of the basis
    assert isotropy_obstruction(alg, (E_X, E_Y)) == (1, 2, alg.mult[0][0][1])
    half = tuple(Q(x, 2) for x in E_X)
    triple = tuple(3 * x for x in E_Y)
    scaled = tuple(Q(3, 2) * x for x in alg.mult[0][0][1])
    assert isotropy_obstruction(alg, (half, E_X, triple)) == (1, 3, scaled)
    with pytest.raises(ValueError, match="at least 2"):
        isotropy_obstruction(alg, (E_X,))


def test_os_algebra_betti_matches_sympy_ranks_in_every_degree():
    # aomoto_betti leaves out the rows of the outgoing map at the pivots of
    # the incoming one, and sympy ranks every row: points on a component,
    # points whose first nonzero coordinate is the last, where that pivot
    # is the last row, the zero point and fractional points
    rng = random.Random(24)

    def fraction():
        return Q(rng.randint(-6, 6), rng.randint(1, 5))

    def on(basis):
        """Two nonzero fractional points of the span of `basis`."""
        points = []
        while len(points) < 2:
            coeffs = [fraction() for _ in basis]
            point = tuple(sum(c * x for c, x in zip(coeffs, col)) for col in zip(*basis))
            if any(point):
                points.append(point)
        return points

    for forms in (BRAID, DELETED_B3, FULL_B3):
        arr = ProjLineArrangement(forms)
        alg = os_algebra_deg2(arr)
        # the last multiple point and the last braid miss line 1 on B3
        # and deleted B3, so their first nonzero coordinate is not the first
        resonant = on(local_components(arr).components[-1].rows)
        resonant += on(braid_subarrangements(arr)[-1].subspace.rows)
        if forms == FULL_B3:
            resonant += on(B3_MULTINET)
        assert all(aomoto.aomoto_betti(alg, a, 1) >= 1 for a in resonant)
        n = arr.n
        points = [(0,) * n, (0,) * (n - 1) + (1,), (0,) * (n - 1) + (Q(-2, 3),)]
        points += resonant + [tuple(fraction() for _ in range(n)) for _ in range(4)]
        for algebra in (alg, alg.padded()):
            for a in points:
                for i in range(algebra.top):
                    got = aomoto.aomoto_betti(algebra, a, i)
                    assert got == sympy_betti(algebra, a, i), (forms, a, i)


def test_non_isotropic_component_is_refused(monkeypatch):
    arr = ProjLineArrangement(FULL_B3)
    plane = RationalSubspace(9, [E_X, E_Y])
    real = arrangements._local_subspaces
    monkeypatch.setattr(arrangements, "_local_subspaces", lambda a: real(a) + [plane])
    product = ", ".join(map(str, os_algebra_deg2(arr).mult[0][0][1]))
    with pytest.raises(OracleError) as err:
        r1_arrangement(arr)
    assert f"basis vectors 1 and 2 multiply to ({product}) in A^2" in str(err.value)


def test_a_jump_off_the_union_names_the_sampled_integer_point(monkeypatch):
    # the sampled points are plain ints on the sum-zero hyperplane, so the
    # message prints them as integers
    monkeypatch.setattr(arrangements, "aomoto_betti", lambda alg, a, i: 1)
    with pytest.raises(OracleError) as err:
        r1_arrangement(ProjLineArrangement(BRAID), seed=0)
    assert str(err.value) == "rank oracle sees a jump off the union at (3, 4, -8, -1, 7, -5)"


def _lines(subspace):
    return {k for row in subspace.basis for k, x in enumerate(row) if x}


def _column_classes(subspace):
    """The coordinates of the support grouped by equal columns of the basis."""
    classes = {}
    for k, column in enumerate(zip(*subspace.basis)):
        if any(column):
            classes.setdefault(column, set()).add(k)
    return list(classes.values())


def _may_meet(u, v):
    """Two classes of each lie inside the other's support."""
    return all(
        sum(c <= _lines(b) for c in _column_classes(a)) >= 2 for a, b in ((u, v), (v, u))
    )


def test_components_on_disjoint_lines_skip_the_elimination(monkeypatch):
    # every component lies in sum a_i = 0, and each of its vectors is
    # constant on its classes, so two components meet only in 0 unless two
    # classes of each lie inside the other's support: only those are ranked,
    # in pair order, whatever index r1_arrangement walks to find them
    ranked = []
    real = arrangements.intersection_dim
    monkeypatch.setattr(
        arrangements, "intersection_dim", lambda u, v: ranked.append((u, v)) or real(u, v)
    )
    forms28 = random.Random(28).sample(_primitive_forms(2), 28)
    counts = {BRAID: 0, DELETED_B3: 6, FULL_B3: 9, SIXTEEN: 78, tuple(forms28): 132}
    for forms, count in counts.items():
        ranked.clear()
        comps = r1_arrangement(ProjLineArrangement(forms)).components
        shapes = [(_lines(c), _column_classes(c)) for c in comps]
        admitted = [
            (comps[i], comps[j])
            for (i, (lines_u, classes_u)), (j, (lines_v, classes_v)) in itertools.combinations(
                enumerate(shapes), 2
            )
            if sum(c <= lines_v for c in classes_u) >= 2 and sum(c <= lines_u for c in classes_v) >= 2
        ]
        assert ranked == admitted and len(ranked) == count
        assert all(real(u, v) == 0 for u, v in ranked)
        if forms is DELETED_B3:
            # 6 of the 41 pairs that share two or more lines
            pairs = list(itertools.combinations(comps, 2))
            assert sum(len(_lines(u) & _lines(v)) >= 2 for u, v in pairs) == 41
            assert ranked == [(u, v) for u, v in pairs if _may_meet(u, v)]


def _block_subspace(rng, n, dim):
    """A random subspace of sum a_i = 0 in Q^n, spanned by vectors constant
    on blocks of 1-3 coordinates, some of them forced proportional."""
    coords = rng.sample(range(n), rng.randint(4, n))
    blocks = []
    while coords:
        size = min(rng.randint(1, 3), len(coords))
        blocks.append(coords[:size])
        coords = coords[size:]
    rows = []
    for _ in range(dim):
        chosen = rng.sample(blocks, rng.randint(2, min(3, len(blocks))))
        values = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in chosen[:-1]]
        if len(chosen) > 2 and rng.random() < 0.5:
            values[-1] = 2 * values[0]  # proportional, unequal columns
        last = -sum(len(b) * x for b, x in zip(chosen, values))
        row = [0] * n
        for b, x in zip(chosen, values):
            for k in b:
                row[k] = x * len(chosen[-1])
        for k in chosen[-1]:
            row[k] = last
        rows.append(row)
    return RationalSubspace(n, rows)


def _random_pairs(rng, count):
    """Pairs of random block subspaces of sum a_i = 0; about half share a
    random vector of the first, so that they meet."""
    for _ in range(count):
        n = rng.randint(5, 10)
        u = _block_subspace(rng, n, rng.randint(1, 3))
        v = _block_subspace(rng, n, rng.randint(1, 2))
        if rng.random() < 0.5:
            coeffs = [rng.choice((-2, -1, 1, 2)) for _ in u.rows]
            shared = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*u.rows)]
            v = RationalSubspace(n, v.rows + (tuple(shared),))
        yield u, v


def _cleared(u, v):
    """Does r1_arrangement skip the elimination of u and v?"""
    (support_u, classes_u), (support_v, classes_v) = map(arrangements._classes, (u, v))
    return not (
        (support_u & support_v).bit_count() >= 2
        and arrangements._two_inside(classes_u, support_v)
        and arrangements._two_inside(classes_v, support_u)
    )


def test_the_class_rule_clears_only_pairs_that_meet_in_0():
    forms28 = random.Random(28).sample(_primitive_forms(2), 28)
    for forms in (FULL_B3, DELETED_B3, SIXTEEN, BRAID, forms28):
        comps = r1_arrangement(ProjLineArrangement(forms)).components
        for u, v in itertools.combinations(comps, 2):
            assert not _cleared(u, v) or intersection_dim(u, v) == 0
    # e_1 + 2 e_2 - 3 e_3 has proportional columns in a line of its own:
    # grouped by proportion it would be one class, and the pair cleared
    u = RationalSubspace(5, [(1, 2, -3, 0, 0)])
    v = RationalSubspace(5, [(1, 2, -3, 0, 0), (0, 0, 1, 1, -2)])
    assert not _cleared(u, v) and intersection_dim(u, v) == 1
    rng = random.Random(25)
    met = cleared = on_two_classes = 0
    for u, v in _random_pairs(rng, 600):
        assert all(sum(row) == 0 for w in (u, v) for row in w.rows)
        dim = intersection_dim(u, v)
        if _cleared(u, v):
            assert dim == 0
            cleared += 1
        elif dim:
            met += 1
            # pairs that a threshold of three classes would clear
            on_two_classes += min(
                sum(c <= _lines(b) for c in _column_classes(a)) for a, b in ((u, v), (v, u))
            ) == 2
    assert met > 200 and cleared > 150 and on_two_classes > 100


def test_a_component_meeting_a_local_one_on_two_classes_is_refused(monkeypatch):
    # span(e_1 - e_2, e_5 - e_6): lines 1 and 2 meet in the triple point
    # (1, 2, 4), lines 5 and 6 are off it.  The plane meets that local
    # component in e_1 - e_2, on two classes of each, and no triple point
    # holds three of its lines, so every pair it is in has only two classes
    # of one side inside the other's support.
    arr = ProjLineArrangement(BRAID)
    plane = RationalSubspace(arr.n, [(1, -1, 0, 0, 0, 0), (0, 0, 0, 0, 1, -1)])
    assert intersection_dim(_point_component(arr.n, (1, 2, 4)), plane) == 1
    monkeypatch.setattr(arrangements, "_certify", lambda *args: None)
    real = arrangements._local_subspaces
    monkeypatch.setattr(arrangements, "_local_subspaces", lambda a: real(a) + [plane])
    with pytest.raises(ValueError, match="pairwise meet only in 0"):
        r1_arrangement(arr)


def test_a_component_off_the_sum_zero_hyperplane_is_refused(monkeypatch):
    # it could meet another component in a vector on their one shared line;
    # the sampling off the union relies on the hyperplane too, so the check
    # comes before any point is drawn or ranked
    arr = ProjLineArrangement(BRAID)
    line = RationalSubspace(arr.n, [[1, 0, 0, 0, 0, 0]])
    monkeypatch.setattr(arrangements, "_certify", lambda *args: None)
    real = arrangements._local_subspaces
    monkeypatch.setattr(arrangements, "_local_subspaces", lambda a: real(a) + [line])
    betti = []
    monkeypatch.setattr(arrangements, "aomoto_betti", lambda *args: betti.append(args))
    with pytest.raises(ValueError, match="pairwise meet only in 0"):
        r1_arrangement(arr)
    assert betti == []


def test_sampled_draws_lie_on_the_sum_zero_hyperplane_off_the_union(monkeypatch):
    # off the hyperplane H^1(A, a) = 0 (Yuzvinsky), so only draws on it test
    # anything; a pencil's one component is the whole hyperplane, and with
    # fewer than two lines the hyperplane is 0, so neither draws a point
    drawn = []
    real = arrangements.aomoto_betti
    monkeypatch.setattr(
        arrangements, "aomoto_betti", lambda alg, a, i: drawn.append(a) or real(alg, a, i)
    )
    for forms in (BRAID, DELETED_B3, FULL_B3, NEAR_PENCIL, PENCIL, ((1, 0, 0),), ()):
        for seed in range(20):
            drawn.clear()
            union = r1_arrangement(ProjLineArrangement(forms), seed=seed)
            n = len(forms)
            assert len(drawn) == (10 if n >= 2 and forms != PENCIL else 0)
            for a in drawn:
                assert len(a) == n and any(a) and sum(a) == 0
                assert all(type(x) is int and -9 <= x <= 9 for x in a[:-1])
                # independent of contains_vector: adding a to the rows of a
                # component raises its dimension
                assert all(
                    RationalSubspace(n, c.rows + (a,)).dim > c.dim for c in union.components
                )


def test_planted_overlapping_component_is_refused(monkeypatch):
    arr = ProjLineArrangement(BRAID)
    comp = r1_arrangement(arr).components[0]
    outside = min(set(range(arr.n)) - _lines(comp))
    # meets comp in the line of its first basis vector
    plane = RationalSubspace(
        arr.n, [comp.basis[0], [int(k == outside) for k in range(arr.n)]]
    )
    assert intersection_dim(comp, plane) == 1
    planted = arrangements.BraidComponent(
        (1, 2, 3, 4, 5, 6), ((1, 2), (3, 4), (5, 6)), plane
    )
    real = arrangements.braid_subarrangements
    monkeypatch.setattr(arrangements, "braid_subarrangements", lambda a: real(a) + (planted,))
    with pytest.raises(ValueError, match="pairwise meet only in 0"):
        r1_arrangement(arr)


def _os_relations(arr):
    return [
        {(i - 1, j - 1): 1, (i - 1, k - 1): -1, (j - 1, k - 1): 1}
        for mp in multiple_points(arr)
        for i, j, k in itertools.combinations(mp.lines, 3)
    ]


# five lines through (0 : 0 : 1)
PENCIL = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (1, 2, 0))


def _closed_form_inputs():
    """The named arrangements, a pencil, n = 0, 1, 2, 200 seeded samples of
    3-20 of the 49 primitive forms in {-2, ..., 2}, and 10 hub arrangements."""
    yield from (FULL_B3, DELETED_B3, SIXTEEN, BRAID, NEAR_PENCIL, PENCIL)
    yield from ((), ((1, 0, 0),), ((1, 0, 0), (0, 1, 0)))
    rng = random.Random(22)
    pool = _primitive_forms(2)
    for _ in range(200):
        yield rng.sample(pool, rng.randint(3, 20))
    for _ in range(10):
        yield _hub_forms(rng, rng.randint(9, 14))


def test_closed_form_algebra_is_the_row_reduced_presentation():
    for forms in _closed_form_inputs():
        arr = ProjLineArrangement(forms)
        got = os_algebra_deg2(arr)
        want = aomoto.quotient_exterior_algebra(arr.n, _os_relations(arr))
        assert got == want and hash(got) == hash(want), forms
        assert got.dims == want.dims and got.mult == want.mult, forms
        assert got.tensors == want.tensors, forms
        assert all(type(x) is Q for per_gen in got.mult[0] for vec in per_gen for x in vec)
    # the pencil keeps the four pairs through its last line
    assert os_algebra_deg2(ProjLineArrangement(PENCIL)).dims == (1, 5, 4)


def test_a_flipped_sign_in_the_sparse_form_is_refused():
    alg = os_algebra_deg2(ProjLineArrangement(FULL_B3))
    ((scale, dst, cols),) = alg.tensors
    b = 4
    (r, j, c), *rest = cols[b]
    flipped = cols[:b] + (((r, j, -c), *rest),) + cols[b + 1:]
    message = f"graded commutativity fails on basis pair ({j + 1}, {b + 1})"
    with pytest.raises(ValueError, match=re.escape(message)):
        aomoto.GradedAlgebraPresentation.from_sparse(alg.dims, ((scale, dst, flipped),))
    # the dense route refuses the same tensor with the same message
    tensor = [list(per_gen) for per_gen in alg.mult[0]]
    tensor[j][b] = tuple(-x if k == r else x for k, x in enumerate(tensor[j][b]))
    with pytest.raises(ValueError, match=re.escape(message)):
        aomoto.GradedAlgebraPresentation(alg.dims, (tensor,))
    # above degree 2 a flipped sign is caught by the square-zero check
    ext = aomoto.exterior_algebra(4)
    tensors = ext.tensors
    (r, j, c), *rest = tensors[1][2][0]
    top = (tensors[1][0], tensors[1][1], (((r, j, -c), *rest),) + tensors[1][2][1:])
    with pytest.raises(ValueError, match="symbolic composition at degree 1 is nonzero"):
        aomoto.GradedAlgebraPresentation.from_sparse(ext.dims, (tensors[0], top, tensors[2]))
    rebuilt = aomoto.GradedAlgebraPresentation.from_sparse(ext.dims, tensors)
    assert rebuilt == ext and rebuilt.tensors == tensors


def _shuffled_double(alg, rng):
    """The sparse tensors of alg, not canonical: scale and entries doubled,
    every column's triples shuffled, and its first triple split in two."""
    tensors = []
    for scale, dst, cols in alg.tensors:
        shuffled = []
        for col in cols:
            col = [(r, j, 2 * c) for r, j, c in col]
            if col:
                (r, j, c), *rest = col
                col = [(r, j, c - 1), (r, j, 1), *rest]
            rng.shuffle(col)
            shuffled.append(tuple(col))
        tensors.append((2 * scale, dst, tuple(shuffled)))
    return tuple(tensors)


def test_equality_does_not_depend_on_the_constructor():
    rng = random.Random(25)
    algebras = [aomoto.exterior_algebra(4), aomoto.exterior_algebra(4).padded()]
    for forms in (FULL_B3, DELETED_B3):
        arr = ProjLineArrangement(forms)
        closed = os_algebra_deg2(arr)
        assert closed.padded() == aomoto.quotient_exterior_algebra(arr.n, _os_relations(arr)).padded()
        algebras += [closed, closed.padded()]
    for alg in algebras:
        # the dense route, with the zero piece on top written out
        dense = aomoto.GradedAlgebraPresentation(alg.dims, alg.mult)
        sparse = aomoto.GradedAlgebraPresentation.from_sparse(alg.dims, _shuffled_double(alg, rng))
        for twin in (dense, sparse):
            assert twin == alg and hash(twin) == hash(alg)
            assert twin.tensors == alg.tensors and repr(twin) == repr(alg)
    top = aomoto.exterior_algebra(4)
    padded = aomoto.GradedAlgebraPresentation(
        top.dims + (0,), top.mult + ((((),) * top.dims[-1],) * top.n,)
    )
    assert top.padded() == padded and hash(top.padded()) == hash(padded)


def _fractional_forms(rng, n):
    """n pairwise non-proportional forms with 'p/q' strings, Fractions and
    negative entries, each a rescaled primitive form in {-2, ..., 2}."""
    scales = [Q(-3, 2), Q(2, 5), Q(-1), Q(7, 3)]
    forms = []
    for f in rng.sample(_primitive_forms(2), n):
        s = rng.choice(scales)
        forms.append(tuple(str(s * x) if rng.random() < 0.5 else s * x for x in f))
    return forms


def test_multiple_points_match_the_fraction_route():
    rng = random.Random(23)
    inputs = [BRAID, NEAR_PENCIL, DELETED_B3, FULL_B3, SIXTEEN, PENCIL]
    inputs += [_fractional_forms(rng, rng.randint(2, 16)) for _ in range(60)]
    for forms in inputs:
        got = multiple_points(ProjLineArrangement(forms))
        assert got == multiple_points_by_fractions(forms), forms
        assert all(type(x) is Q for p in got for x in p.point)


def test_arr_points_prints_the_fraction_route(tmp_path, capsys):
    rng = random.Random(24)
    inputs = [BRAID, NEAR_PENCIL, DELETED_B3, FULL_B3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    inputs.append(_fractional_forms(rng, 9))
    for k, forms in enumerate(inputs):
        path = tmp_path / f"forms{k}.json"
        path.write_text(json.dumps([[str(x) for x in f] for f in forms]))
        assert main(["arr", "points", "--forms", str(path)]) == 0
        points = [codec.multiple_point(p) for p in multiple_points_by_fractions(forms)]
        want = json.dumps({"points": points}, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == want


def test_orlik_solomon_algebra_matches_the_reduction_oracle():
    for forms in (BRAID, NEAR_PENCIL, DELETED_B3, FULL_B3, SIXTEEN):
        arr = ProjLineArrangement(forms)
        assert os_algebra_deg2(arr) == quotient_exterior_algebra_by_reduction(
            arr.n, _os_relations(arr)
        )


def test_sixteen_lines_keep_their_components():
    arr = ProjLineArrangement(SIXTEEN)
    assert len(r1_arrangement(arr).components) == 82


@pytest.mark.parametrize("name", ["braid", "deleted-b3"])
def test_each_arrangement_is_analysed_once(monkeypatch, name):
    calls = {"points": 0, "algebra": 0, "compile": 0, "certify": 0, "betti": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # the multiple-point loop normalizes each of the C(n, 2) pairwise crossings
    monkeypatch.setattr(arrangements, "_meet", counted("points", arrangements._meet))
    # the algebra is built once, in closed form, already compiled
    monkeypatch.setattr(
        arrangements, "_orlik_solomon", counted("algebra", arrangements._orlik_solomon)
    )
    monkeypatch.setattr(aomoto, "_compile", counted("compile", aomoto._compile))
    # each local and each braid component is certified once
    monkeypatch.setattr(
        arrangements, "_certify", counted("certify", arrangements._certify)
    )
    # certification is exact, so the rank oracle runs only for the 10
    # sampled points off the union
    monkeypatch.setattr(
        arrangements, "aomoto_betti", counted("betti", arrangements.aomoto_betti)
    )
    report = run_fixture(name, seed=0)
    n, components = {"braid": (6, 5), "deleted-b3": (8, 12)}[name]
    assert calls == {
        "points": comb(n, 2),
        "algebra": 1,
        "compile": 0,
        "certify": components,
        "betti": 10,
    }
    assert report["algebra_dims"][1] == n


def test_analysis_is_kept_on_the_arrangement():
    arr = ProjLineArrangement(DELETED_B3)
    assert os_algebra_deg2(arr) is os_algebra_deg2(arr)
    assert multiple_points(arr) is multiple_points(arr)
    assert braid_subarrangements(arr) is braid_subarrangements(arr)
    # the kept data takes no part in equality or hashing
    assert arr == ProjLineArrangement(DELETED_B3)
    assert hash(arr) == hash(ProjLineArrangement(DELETED_B3))


def _conic_tangents(n):
    """n lines tangent to a conic: pairwise distinct, and no three concurrent."""
    return ProjLineArrangement([(1, k, k * k) for k in range(n)])


def test_line_limit_is_checked_before_any_work():
    assert LINE_LIMIT < 40
    for fn in (braid_subarrangements, r1_arrangement):
        arr = _conic_tangents(40)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too many lines: 40"):
            fn(arr)
        assert time.perf_counter() - start < 1
        assert arr._points is None and arr._algebra is None and arr._braids is None
    arr = _conic_tangents(40)
    assert len(multiple_points(arr)) == comb(40, 2)
    assert omega_bounds(arr, 2) == "full"
