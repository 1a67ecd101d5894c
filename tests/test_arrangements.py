"""Projective line arrangements: intersection lattice, degree-one
resonance components, certification."""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import pytest
from oracles import (
    braid_component_equations,
    local_component_equations,
    points_without_jump,
    quotient_exterior_algebra_by_reduction,
)

from jumploci import aomoto, arrangements
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
from jumploci.fixtures import run_fixture
from jumploci.qlinalg import RationalSubspace, intersection_dim

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


def test_non_isotropic_component_is_refused(monkeypatch):
    arr = ProjLineArrangement(FULL_B3)
    plane = RationalSubspace(9, [E_X, E_Y])
    real = arrangements._local_subspaces
    monkeypatch.setattr(arrangements, "_local_subspaces", lambda a: real(a) + [plane])
    product = ", ".join(map(str, os_algebra_deg2(arr).mult[0][0][1]))
    with pytest.raises(OracleError) as err:
        r1_arrangement(arr)
    assert f"basis vectors 1 and 2 multiply to ({product}) in A^2" in str(err.value)


def _lines(subspace):
    return {k for row in subspace.basis for k, x in enumerate(row) if x}


def test_components_on_disjoint_lines_skip_the_elimination(monkeypatch):
    ranked = []
    real = arrangements.intersection_dim
    monkeypatch.setattr(
        arrangements, "intersection_dim", lambda u, v: ranked.append(1) or real(u, v)
    )
    comps = r1_arrangement(ProjLineArrangement(DELETED_B3)).components
    overlapping = [
        (u, v) for u, v in itertools.combinations(comps, 2) if _lines(u) & _lines(v)
    ]
    assert len(ranked) == len(overlapping) == comb(len(comps), 2) - 1
    assert all(real(u, v) == 0 for u, v in itertools.combinations(comps, 2))


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


def test_orlik_solomon_algebra_matches_the_reduction_oracle():
    for forms in (BRAID, NEAR_PENCIL, DELETED_B3, FULL_B3, SIXTEEN):
        arr = ProjLineArrangement(forms)
        relations = [
            {(i - 1, j - 1): 1, (i - 1, k - 1): -1, (j - 1, k - 1): 1}
            for mp in multiple_points(arr)
            for i, j, k in itertools.combinations(mp.lines, 3)
        ]
        assert os_algebra_deg2(arr) == quotient_exterior_algebra_by_reduction(
            arr.n, relations
        )


def test_sixteen_lines_keep_their_components():
    arr = ProjLineArrangement(SIXTEEN)
    assert len(r1_arrangement(arr).components) == 82


@pytest.mark.parametrize("name", ["braid", "deleted-b3"])
def test_each_arrangement_is_analysed_once(monkeypatch, name):
    calls = {"points": 0, "algebra": 0, "compile": 0, "scan": 0, "betti": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # the multiple-point loop normalizes each of the C(n, 2) pairwise crossings
    monkeypatch.setattr(
        arrangements,
        "primitive_integer_vector",
        counted("points", arrangements.primitive_integer_vector),
    )
    monkeypatch.setattr(
        arrangements,
        "quotient_exterior_algebra",
        counted("algebra", arrangements.quotient_exterior_algebra),
    )
    monkeypatch.setattr(aomoto, "_compile", counted("compile", aomoto._compile))
    # the braid scan tests the pattern once per 6-subset of lines
    monkeypatch.setattr(
        arrangements, "_braid_pattern", counted("scan", arrangements._braid_pattern)
    )
    # certification is exact, so the rank oracle runs only for the 10
    # sampled points off the union
    monkeypatch.setattr(
        arrangements, "aomoto_betti", counted("betti", arrangements.aomoto_betti)
    )
    report = run_fixture(name, seed=0)
    n = {"braid": 6, "deleted-b3": 8}[name]
    assert calls == {
        "points": comb(n, 2),
        "algebra": 1,
        "compile": 1,
        "scan": comb(n, 6),
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
