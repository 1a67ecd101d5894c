"""Rational linear algebra against sympy and brute force."""

import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from jumploci.aomoto import aomoto_betti, exterior_algebra
from jumploci.qlinalg import (
    RationalSubspace,
    SubspaceArrangement,
    coset_in_subspace_mod_lattice,
    hermite_reduce,
    in_row_lattice,
    intersection_dim,
    meets_nontrivially,
    nullspace,
    primitive_integer_vector,
    rank_int,
    rref,
    subspace_intersect,
    subspace_sum,
)
from jumploci.toric import CoordinateArrangement

from oracles import (
    brute_coset_hits,
    contains_subspace_by_reduction,
    contains_vector_by_reduction,
    coordinate_subspace,
    in_span,
    integer_equations,
    integer_rank,
    intersection_dim_by_reduction,
    maximal_members,
    meets_rank,
    random_subspace_basis,
    random_vector,
    rref_sympy,
    sympy_nullspace,
    sympy_rank,
)

Q = Fraction


def test_rank_matches_sympy_on_random_matrices():
    rng = random.Random(11)
    for _ in range(60):
        rows = [
            [Q(rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(1, 5))
        ]
        width = max(len(r) for r in rows)
        rows = [r + [Q(0)] * (width - len(r)) for r in rows]
        scaled = [[int(x * lcm(*(y.denominator for y in r))) for x in r] for r in rows]
        assert rank_int(scaled) == sympy_rank(rows)
        assert len(rref(rows)[0]) == sympy_rank(rows)


def _random_matrix(rng):
    """Fractional entries, often zero, zero rows, duplicated rows and the
    empty, wide and tall shapes."""
    shape = rng.choice(("empty", "wide", "tall", "square"))
    if shape == "empty":
        return [[] for _ in range(rng.randint(0, 2))]
    small, large = rng.randint(1, 3), rng.randint(4, 8)
    nrows, ncols = {"wide": (small, large), "tall": (large, small)}.get(
        shape, (small + 1, small + 1)
    )
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.15:
            rows.append([Q(0)] * ncols)
        elif roll < 0.3 and rows:
            rows.append([x * rng.choice((-2, 1, 3)) for x in rng.choice(rows)])
        else:
            rows.append([
                Q(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < 0.6 else Q(0)
                for _ in range(ncols)
            ])
    return rows


def test_rref_matches_sympy_canonical_form():
    rng = random.Random(29)
    for _ in range(300):
        rows = _random_matrix(rng)
        got_rows, got_pivots = rref(rows)
        want_rows, want_pivots = rref_sympy(rows)
        assert got_rows == want_rows and got_pivots == want_pivots
        assert all(type(x) is Q for row in got_rows for x in row)
    assert rref([]) == ((), ())


def _as_other_exact_type(rng, x):
    """x as an int, bool or 'p/q' string where it can be, else a Fraction."""
    kinds = ["fraction", "string"]
    if x.denominator == 1:
        kinds.append("int")
    if x in (0, 1):
        kinds.append("bool")
    kind = rng.choice(kinds)
    if kind == "int":
        return int(x)
    if kind == "bool":
        return bool(x)
    if kind == "string":
        return f"{x.numerator}/{x.denominator}"
    return x


def test_rref_takes_mixed_exact_entries():
    rng = random.Random(37)
    for _ in range(200):
        rows = _random_matrix(rng)
        mixed = [[_as_other_exact_type(rng, x) for x in r] for r in rows]
        got_rows, got_pivots = rref(mixed)
        assert (got_rows, got_pivots) == rref_sympy(rows) == rref(rows)
        assert all(type(x) is Q for row in got_rows for x in row)
    assert rref([[True, 2, "1/2"], [Q(1, 3), False, "-2"]]) == rref_sympy(
        [[1, 2, Q(1, 2)], [Q(1, 3), 0, -2]]
    )


def test_rref_rejects_floats_and_ragged_rows():
    with pytest.raises(TypeError):
        rref([[1, 0.5]])
    with pytest.raises(TypeError):
        rref([[1, 2], [Q(1, 2), 3.0]])
    with pytest.raises(ValueError):
        rref([[1, 2], [3]])
    with pytest.raises(ValueError):
        rref([["1/2"], [1, Q(2)]])


def test_lengths_are_checked_before_entries():
    # a short row is reported even when another row holds a float
    with pytest.raises(ValueError, match="vector length 1 != ambient dimension 2"):
        RationalSubspace(2, [[0.5, 1], [1]])
    with pytest.raises(ValueError, match="vector length 1 != ambient dimension 2"):
        RationalSubspace.from_equations(2, [["1/2", 1], [0.5]])
    # a zero row still sets the width the other rows must have
    with pytest.raises(ValueError, match="ragged matrix"):
        rref([[0, 0], [1]])
    with pytest.raises(ValueError, match="ragged matrix"):
        rref([[1, 2], [0.5]])
    # with every length right, the float is refused
    with pytest.raises(TypeError):
        RationalSubspace(2, [[0.5, 1], [1, 0]])


def test_nullspace_matches_sympy_after_canonicalising():
    rng = random.Random(31)
    for _ in range(300):
        rows = _random_matrix(rng)
        ncols = len(rows[0]) if rows else rng.randint(0, 4)
        got = nullspace(rows, ncols)
        assert got == sympy_nullspace(rows, ncols)
        for v in got:
            assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)


def test_span_basis_is_canonical():
    # two generating sets of the same plane give the same basis rows
    a = RationalSubspace.span(3, [(1, 1, 0), (0, 0, 1)])
    b = RationalSubspace.span(3, [(2, 2, 3), (0, 0, -5), (1, 1, 1)])
    assert a == b
    assert a.basis == b.basis
    assert hash(a) == hash(b)
    assert a.dim == 2


def test_annihilator_is_an_involution():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        d = rng.randint(0, n)
        u = RationalSubspace.span(n, random_subspace_basis(rng, n, d))
        ann = u.annihilator()
        assert ann.dim == n - u.dim
        assert ann.annihilator() == u
        for row in ann.basis:
            for vec in u.basis:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_subspaces_built_from_a_nullspace_equal_their_rebuilt_span():
    # from_equations, annihilator and subspace_intersect build their rows
    # from integer kernels; the result must equal the span rebuilt from
    # its own basis
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 5)
        u = RationalSubspace.span(n, random_subspace_basis(rng, n, rng.randint(0, n)))
        v = RationalSubspace.span(n, random_subspace_basis(rng, n, rng.randint(0, n)))
        eqs = random_subspace_basis(rng, n, rng.randint(0, n))
        for s in (u.annihilator(), subspace_intersect(u, v), RationalSubspace.from_equations(n, eqs)):
            rebuilt = RationalSubspace.span(n, s.basis)
            assert (s.n, s.basis, s.dim) == (rebuilt.n, rebuilt.basis, rebuilt.dim)
            assert s == rebuilt and hash(s) == hash(rebuilt)
            assert pickle.loads(pickle.dumps(s)) == s


def test_from_equations_matches_annihilator():
    u = RationalSubspace.from_equations(4, [(1, 1, 1, 0), (0, 0, 0, 1)])
    assert u.dim == 2
    assert u.annihilator() == RationalSubspace.span(4, [(1, 1, 1, 0), (0, 0, 0, 1)])
    assert u.contains_vector((1, -1, 0, 0))
    assert not u.contains_vector((1, 0, 0, 0))


def test_sum_and_intersection_dimensions_match_rank_oracle():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        u = RationalSubspace.span(n, random_subspace_basis(rng, n, rng.randint(0, n)))
        v = RationalSubspace.span(n, random_subspace_basis(rng, n, rng.randint(0, n)))
        s = subspace_sum(u, v)
        assert s.dim == sympy_rank(list(u.basis) + list(v.basis))
        # modular law for dimensions
        assert intersection_dim(u, v) == u.dim + v.dim - s.dim
        w = subspace_intersect(u, v)
        assert w.dim == intersection_dim(u, v)
        assert u.contains_subspace(w) and v.contains_subspace(w)


def test_intersection_dim_matches_integer_rank_with_fractional_rows():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 6)

        def span():
            rows = [
                [Q(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(rng.randint(0, n))
            ]
            return RationalSubspace.span(n, rows)

        u, v = span(), span()
        stacked = [
            [x * lcm(*(y.denominator for y in row)) for x in row]
            for row in u.basis + v.basis
        ]
        assert intersection_dim(u, v) == u.dim + v.dim - integer_rank(stacked)


def test_contains_vector_matches_sympy():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        basis = random_subspace_basis(rng, n, rng.randint(0, n))
        u = RationalSubspace.span(n, basis)
        v = random_vector(rng, n)
        assert u.contains_vector(v) == in_span(list(v), basis or [[Q(0)] * n])


def _subspaces_from_every_constructor(rng, n):
    """Subspaces of Q^n built by span, from_equations, annihilator,
    subspace_intersect, zero and full, with fractional rows."""

    def rows(k):
        return [
            [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(k)
        ]

    u = RationalSubspace.span(n, rows(rng.randint(1, n)))
    v = RationalSubspace.span(n, rows(rng.randint(1, n)))
    return [
        u,
        RationalSubspace.from_equations(n, rows(rng.randint(0, n))),
        v.annihilator(),
        subspace_intersect(u, v),
        RationalSubspace.zero(n),
        RationalSubspace.full(n),
    ]


def test_every_constructor_stores_primitive_reduced_rows():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 6)
        for u in _subspaces_from_every_constructor(rng, n):
            assert len(u.rows) == u.dim and len(u.equations) == n - u.dim
            pivots = []
            for row in u.rows:
                assert all(type(x) is int for x in row) and gcd(*row) == 1
                p = next(j for j, x in enumerate(row) if x)
                assert row[p] > 0
                pivots.append(p)
            # pivots increase and each pivot column is zero in the other rows
            assert pivots == sorted(set(pivots))
            for i, p in enumerate(pivots):
                assert all(r[p] == 0 for k, r in enumerate(u.rows) if k != i)
            divided = tuple(tuple(Q(x, row[p]) for x in row) for row, p in zip(u.rows, pivots))
            assert u.basis == divided
            for eq in u.equations:
                assert all(type(c) is int for _, c in eq)
                assert all(sum(c * row[k] for k, c in eq) == 0 for row in u.rows)
            assert u.annihilator().annihilator() == u


def _primitive_rref_rows(rows):
    """sympy's RREF rows, each scaled to coprime integers; every pivot is
    1, so the scale is positive."""
    out = []
    for row in rref_sympy(rows)[0]:
        den = lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row]
        g = gcd(*ints)
        out.append(tuple(x // g for x in ints))
    return tuple(out)


def test_subspace_rows_are_sympy_rref_scaled_to_primitive_integers():
    rng = random.Random(67)
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 12)
        plain = rng.random() < 0.4
        entry = (lambda: Q(rng.randint(-4, 4))) if plain else (
            lambda: Q(rng.randint(-4, 4), rng.randint(1, 3)))
        # rows drawn from a span of lower rank than their number, with
        # zero and repeated rows mixed in
        basis = [[entry() for _ in range(n)] for _ in range(rng.randint(0, min(n, 5)))]
        rows = []
        for _ in range(rng.randint(0, 7)):
            roll = rng.random()
            if roll < 0.15:
                rows.append([Q(0)] * n)
            elif roll < 0.3 and rows:
                rows.append(list(rng.choice(rows)))
            else:
                coeffs = [rng.randint(-2, 2) for _ in basis]
                rows.append([sum((c * b[k] for c, b in zip(coeffs, basis)), Q(0)) for k in range(n)])
        if plain:
            given = [[int(x) for x in r] for r in rows]
        else:
            given = [[_as_other_exact_type(rng, x) for x in r] for r in rows]
        kinds.update(type(x) for r in given for x in r)
        u = RationalSubspace(n, given)
        assert u.rows == _primitive_rref_rows(rows)
        assert u.dim == sympy_rank(rows)
    assert kinds == {int, bool, str, Q}


def test_elimination_leaves_the_callers_rows_alone():
    rng = random.Random(71)

    def check(call, *data):
        before = copy.deepcopy(data)
        call(*data)
        assert data == before

    for _ in range(60):
        n = rng.randint(1, 6)
        ints = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 5))]
        ints += [list(r) for r in ints[:1]] + [[0] * n]
        fracs = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(3)]
        check(rank_int, ints)
        for rows in (ints, fracs):
            check(lambda r: RationalSubspace(n, r), rows)
            check(lambda r: RationalSubspace.from_equations(n, r), rows)
            check(rref, rows)

        def built(rows):
            return RationalSubspace(n, rows)

        check(lambda a, b: subspace_sum(built(a), built(b)), ints, fracs)
        check(lambda a, b: subspace_intersect(built(a), built(b)), ints, fracs)
        pieces = [[j + 1 for j in range(n) if rng.random() < 0.5] for _ in range(3)]
        check(lambda w, r: CoordinateArrangement(n, w).meets_subspace(built(r)), pieces, ints)
    alg = exterior_algebra(4)
    for point in ([1, -2, 0, 3], [Q(1, 2), 0, "-3/4", 1]):
        for i in (1, 2, 3):
            check(lambda a: aomoto_betti(alg, a, i), point)


def test_contains_vector_matches_reduction_oracle():
    rng = random.Random(61)
    seen = set()
    for _ in range(40):
        n = rng.randint(1, 6)
        for u in _subspaces_from_every_constructor(rng, n):
            coeffs = [Q(rng.randint(-5, 5), rng.randint(1, 4)) for _ in u.basis]
            inside = [sum((c * r[k] for c, r in zip(coeffs, u.basis)), Q(0)) for k in range(n)]
            vectors = [
                random_vector(rng, n),
                [rng.randint(-3, 3) for _ in range(n)],
                [Q(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)],
                inside,
                [str(x) for x in inside],
                [0] * n,
            ]
            for v in vectors:
                got = u.contains_vector(v)
                assert got == contains_vector_by_reduction(u, v)
                seen.add(got)
            assert u.contains_vector(inside)
    assert seen == {True, False}


def test_contains_subspace_matches_reduction_oracle():
    rng = random.Random(67)
    kinds = set()
    for _ in range(40):
        n = rng.randint(1, 6)
        subs = _subspaces_from_every_constructor(rng, n)
        # nested pairs: a subspace and a span of part of its basis
        subs += [RationalSubspace.span(n, s.basis[: rng.randint(0, s.dim)]) for s in subs]
        for u in subs:
            for w in subs:
                got = u.contains_subspace(w)
                assert got == contains_subspace_by_reduction(u, w)
                if u == w:
                    kinds.add("equal")
                elif u.dim == w.dim:
                    kinds.add("equal dimension")
                    assert not got
                elif w.dim > u.dim:
                    kinds.add("larger into smaller")
                    assert not got
                elif got:
                    kinds.add("nested")
    assert kinds == {"equal", "equal dimension", "larger into smaller", "nested"}


def test_intersection_dim_matches_reduction_oracle():
    rng = random.Random(71)
    dims = set()
    for _ in range(40):
        n = rng.randint(1, 6)
        subs = _subspaces_from_every_constructor(rng, n)
        for u in subs:
            for w in subs:
                got = intersection_dim(u, w)
                assert got == intersection_dim_by_reduction(u, w)
                dims.add(got)
    assert len(dims) >= 4


def test_the_integer_predicates_are_kept_per_subspace():
    u = RationalSubspace.span(4, [(Q(1, 2), 1, 0, Q(-1, 3)), (0, 0, 1, 2)])
    # x = x0 r0 + x2 r2 with r0 = (1, 2, 0, -2/3): 3 x1 - 6 x0 = 0 and
    # 3 x3 + 2 x0 - 6 x2 = 0, over the lcm 3 of the basis denominators
    assert u.equations == (((1, 3), (0, -6)), ((3, 3), (0, 2), (2, -6)))
    assert u.rows == ((3, 6, 0, -2), (0, 0, 1, 2))
    assert u.basis == ((1, 2, 0, Q(-2, 3)), (0, 0, 1, 2))
    assert RationalSubspace.full(3).equations == ()
    assert RationalSubspace.full(3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert RationalSubspace.zero(2).equations == (((0, 1),), ((1, 1),))
    assert RationalSubspace.zero(2).rows == ()
    # negative pivots and a different generating set give the same rows
    twin = RationalSubspace.span(4, [(0, 0, -2, -4), (-6, -12, 4, 12)])
    assert twin == u and hash(twin) == hash(u)
    for other in (pickle.loads(pickle.dumps(u)), twin):
        assert (other.rows, other.equations, other.dim) == (u.rows, u.equations, u.dim)
    with pytest.raises(ValueError, match="vector length mismatch"):
        u.contains_vector((1, 2, 3))
    with pytest.raises(TypeError):
        u.contains_vector((1.0, 2, 0, 0))
    # plain ints skip the coercion, but a boolean is still refused, before
    # the length is checked
    for bad in ((True, 2, 0, 0), (0, False, 0), [1, 2, 3, 4, True]):
        with pytest.raises(TypeError, match="cannot interpret"):
            u.contains_vector(bad)
    assert u.contains_vector(iter((3, 6, 0, -2)))
    with pytest.raises(ValueError, match="ambient dimensions differ"):
        u.contains_subspace(RationalSubspace.full(5))


def test_equations_are_built_on_first_use():
    rng = random.Random(79)
    built = 0
    for _ in range(200):
        rows = _random_matrix(rng)
        n = len(rows[0]) if rows else 0
        mixed = [[_as_other_exact_type(rng, x) for x in r] for r in rows]
        for given in (rows, mixed):
            u = RationalSubspace(n, given)
            assert u._equations is None
            # the rank predicate reads no equations
            assert intersection_dim(u, RationalSubspace.full(n)) == u.dim
            assert u._equations is None
            assert u.equations == integer_equations(rows, n)
            assert u._equations is u.equations
            built += len(u.equations)
    assert built > 0


def test_predicates_reading_equations_agree_before_and_after_first_use():
    rng = random.Random(83)
    kinds = set()
    for _ in range(60):
        n = rng.randint(1, 3)
        rows = random_subspace_basis(rng, n, rng.randint(0, n), lo=-3, hi=3)
        mixed = [
            [_as_other_exact_type(rng, x / f) for x in r]
            for r, f in zip(rows, (rng.randint(1, 3) for _ in rows))
        ]
        other = RationalSubspace.span(n, random_subspace_basis(rng, n, rng.randint(0, n), lo=-1, hi=1))
        q = tuple(Q(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(n))
        want = (
            RationalSubspace.span(n, sympy_nullspace(rows, n)),
            contains_subspace_by_reduction(RationalSubspace.span(n, rows), other),
            brute_coset_hits(q, rows or [[Q(0)] * n], n, box=5),
        )
        for first in range(3):
            u = RationalSubspace(n, mixed)
            # the predicate called first builds the equations the others read
            calls = [
                lambda: u.annihilator(),
                lambda: u.contains_subspace(other),
                lambda: coset_in_subspace_mod_lattice(q, u),
            ]
            assert calls[first]() == want[first]
            assert [call() for call in calls] == list(want)
        kinds.add(want[1:])
    assert {got for _, got in kinds} == {True, False}
    assert {got for got, _ in kinds} == {True, False}


def test_coset_membership_against_bounded_search():
    rng = random.Random(99)
    hits = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        u = RationalSubspace.span(n, random_subspace_basis(rng, n, rng.randint(0, n)))
        q = tuple(
            Q(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(n)
        )
        got = coset_in_subspace_mod_lattice(q, u)
        # the brute box covers every denominator used above
        expect = brute_coset_hits(q, list(u.basis) or [[Q(0)] * n], n, box=5)
        assert got == expect
        hits += got
    assert hits > 0  # the sample actually exercises both outcomes


def test_coset_known_cases():
    line = RationalSubspace.span(2, [(0, 1)])
    assert coset_in_subspace_mod_lattice((Q(0), Q(7, 3)), line)
    assert coset_in_subspace_mod_lattice((Q(2), Q(1, 2)), line)
    assert not coset_in_subspace_mod_lattice((Q(1, 2), Q(0)), line)
    diag = RationalSubspace.span(2, [(1, 1)])
    assert coset_in_subspace_mod_lattice((Q(1, 2), Q(1, 2)), diag)
    assert not coset_in_subspace_mod_lattice((Q(1, 2), Q(1, 3)), diag)
    # U = Q^n has no equations: every coset meets it
    for n in range(4):
        full = RationalSubspace.full(n)
        assert coset_in_subspace_mod_lattice((Q(1, 3),) * n, full)
        assert coset_in_subspace_mod_lattice((Q(0),) * n, full)


def test_hermite_lattice_membership():
    h = hermite_reduce([(2, 0), (0, 2)])
    assert in_row_lattice(h, (4, -2))
    assert not in_row_lattice(h, (1, 0))
    h2 = hermite_reduce([(2, 1)])
    assert in_row_lattice(h2, (4, 2))
    assert not in_row_lattice(h2, (2, 0))


def _det(m):
    """Integer determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0])
    )


def test_row_lattice_membership_against_residues():
    # Integer rows with a zero column inserted and negative entries, so
    # hermite_reduce skips a column and flips negative pivots.  The rows
    # span the other k columns, so N Z^k lies in their row lattice L for N
    # the gcd of their k x k minors: v is in L exactly when some
    # coefficient vector in [0, N)^rows reaches v mod N.
    rng = random.Random(71)
    checked = 0
    while checked < 40:
        k = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(k, k + 1))]
        index = gcd(*(_det(list(m)) for m in itertools.combinations(rows, k)))
        if not 0 < index <= 8:
            continue
        reach = {
            tuple(sum(c * row[j] for c, row in zip(cs, rows)) % index for j in range(k))
            for cs in itertools.product(range(index), repeat=len(rows))
        }
        zero = rng.randint(0, k)

        def widen(v):
            return tuple(v[:zero]) + (0,) + tuple(v[zero:])

        h = hermite_reduce([widen(row) for row in rows])
        assert all(next(x for x in row if x) > 0 for row in h)
        for _ in range(25):
            v = [rng.randint(-9, 9) for _ in range(k)]
            assert in_row_lattice(h, widen(v)) == (tuple(x % index for x in v) in reach)
        off = [0] * (k + 1)
        off[zero] = 1
        assert not in_row_lattice(h, off)
        checked += 1


def test_primitive_integer_vector_normalization():
    assert primitive_integer_vector((Q(2, 3), Q(-4, 3))) == (1, -2)
    assert primitive_integer_vector((Q(0), Q(-5), Q(10))) == (0, 1, -2)
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        v = random_vector(rng, n)
        if all(x == 0 for x in v):
            continue
        p = primitive_integer_vector(v)
        nonzero = [x for x in p if x]
        assert nonzero[0] > 0
        # proportional to the input
        i = next(j for j, x in enumerate(v) if x)
        scale = Q(p[i]) / v[i]
        assert all(Q(pi) == vi * scale for pi, vi in zip(p, v))


def test_arrangement_prunes_and_sorts():
    line = RationalSubspace.span(3, [(1, 0, 0)])
    plane = RationalSubspace.span(3, [(1, 0, 0), (0, 1, 0)])
    arr = SubspaceArrangement(3, [line, plane, RationalSubspace.zero(3)])
    assert len(arr) == 1  # the line sits inside the plane; zero is dropped
    assert arr.components[0] == plane
    same = SubspaceArrangement(3, [plane, plane])
    assert arr == same
    assert hash(arr) == hash(same)


def test_components_keep_the_basis_order():
    rng = random.Random(89)
    orders = set()
    for _ in range(200):
        n = rng.randint(2, 5)
        comps = []
        for _ in range(rng.randint(2, 6)):
            # few distinct entries, so that bases often agree in a prefix
            rows = [
                [Q(rng.choice((-2, 0, 1, 3)), rng.choice((1, 2, 3))) for _ in range(n)]
                for _ in range(rng.randint(1, n - 1))
            ]
            comps.append(RationalSubspace.span(n, rows))
        arr = SubspaceArrangement(n, comps)
        assert arr.components == tuple(sorted(arr.components, key=lambda s: (-s.dim, s.basis)))
        orders.add(arr.components == tuple(sorted(arr.components, key=lambda s: s.rows)))
    # the order of the integer rows alone is not the basis order
    assert orders == {True, False}


def _b3_local_and_braid_subspaces():
    from jumploci.arrangements import (
        ProjLineArrangement,
        _local_subspaces,
        braid_subarrangements,
    )

    b3 = ProjLineArrangement(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 1, 0),
         (1, 0, -1), (1, 0, 1), (0, 1, -1), (0, 1, 1))
    )
    return _local_subspaces(b3) + [b.subspace for b in braid_subarrangements(b3)]


def _support(subspace):
    return {k for row in subspace.basis for k, x in enumerate(row) if x}


def _counted_containment(monkeypatch):
    """Record each contains_subspace call as (container, member)."""
    calls = []
    real = RationalSubspace.contains_subspace

    def counted(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(RationalSubspace, "contains_subspace", counted)
    return calls


def test_pruning_tests_only_larger_members(monkeypatch):
    comps = _b3_local_and_braid_subspaces()
    assert len(comps) == 18
    assert sorted(c.dim for c in comps) == [2] * 15 + [3] * 3
    calls = _counted_containment(monkeypatch)
    arr = SubspaceArrangement(9, comps)
    # the 3 components of dimension 3 sit on 4 lines through one point, and
    # no triple point or braid has its 3 or 6 lines among them: testing
    # every larger member took 45 calls, every ordered pair 18 * 17 = 306
    assert calls == []
    assert arr.components == maximal_members(comps)

    # nested supports in Q^6
    e = lambda *coeffs: [coeffs[k] if k < len(coeffs) else 0 for k in range(6)]
    a = RationalSubspace(6, [e(1, 1), e(0, 0, 1)])  # support {1, 2, 3}
    d = RationalSubspace(6, [e(1, 0, -1), e(0, 1)])  # same support and dimension
    top = RationalSubspace(6, [e(0, 0, 0, 1), e(0, 0, 0, 0, 1), e(0, 0, 0, 0, 0, 1)])
    b = RationalSubspace(6, [e(1, -1)])  # inside the supports of a and d only
    c = RationalSubspace(6, [e(1, 1)])  # inside a
    g = RationalSubspace(6, [e(0, 0, 0, 1, 1)])  # inside top
    twin = RationalSubspace(6, [e(2, 2)])  # c built along another path
    comps = [b, c, a, g, d, top, twin]
    calls.clear()
    arr = SubspaceArrangement(6, comps)
    # a and d, of one dimension, are never tested against each other, nor
    # against top, whose support holds neither; c stops at a, the first
    # member that holds it, and its twin is never tested
    assert calls == [(a, b), (d, b), (a, c), (top, g)]
    assert all(u.dim > w.dim and _support(w) <= _support(u) for u, w in calls)
    assert set(arr.components) == {a, b, d, top}
    assert arr.components == maximal_members(comps)


def _members_on_shared_supports(rng, n):
    """Subspaces of Q^n spanned on a few random coordinate sets: on each
    set a member, one inside it, one of another dimension on the same set,
    and sometimes a duplicate built along another path."""
    comps = []
    for _ in range(rng.randint(1, 3)):
        cols = set(rng.sample(range(n), rng.randint(2, n)))

        def on_cols(count):
            return [[rng.randint(-3, 3) if k in cols else 0 for k in range(n)] for _ in range(count)]

        top = RationalSubspace.span(n, on_cols(rng.randint(1, len(cols))))
        coeffs = [[rng.randint(-2, 2) for _ in top.rows] for _ in range(rng.randint(1, top.dim))]
        inner = [[sum(c * x for c, x in zip(cs, col)) for col in zip(*top.rows)] for cs in coeffs]
        comps += [top, RationalSubspace.span(n, inner), RationalSubspace.span(n, on_cols(rng.randint(1, len(cols))))]
        if rng.random() < 0.5:
            comps.append(RationalSubspace.span(n, [[2 * x for x in r] for r in reversed(top.basis)]))
    rng.shuffle(comps)
    return comps


def test_pruning_matches_the_all_pairs_oracle():
    rng = random.Random(73)
    pruned = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        comps = [
            RationalSubspace.span(n, random_subspace_basis(rng, n, rng.randint(0, n)))
            for _ in range(rng.randint(1, 4))
        ]
        # nested members, and duplicates built along another path
        for c in list(comps):
            comps.append(RationalSubspace.span(n, c.basis[: rng.randint(0, c.dim)]))
            if rng.random() < 0.5:
                comps.append(RationalSubspace.span(n, [[2 * x for x in r] for r in reversed(c.basis)]))
        rng.shuffle(comps)
        arr = SubspaceArrangement(n, comps)
        assert arr.components == maximal_members(comps)
        pruned += len(set(c for c in comps if c.dim > 0)) - len(arr)
    assert pruned > 0
    # members of different dimensions on equal supports, where the support
    # test passes and only the containment test decides
    rng = random.Random(28)
    pruned = shared = 0
    for _ in range(60):
        n = rng.randint(3, 8)
        comps = _members_on_shared_supports(rng, n)
        arr = SubspaceArrangement(n, comps)
        assert arr.components == maximal_members(comps)
        pruned += len(set(c for c in comps if c.dim > 0)) - len(arr)
        shared += sum(
            u.dim > w.dim > 0 and _support(u) == _support(w) and not u.contains_subspace(w)
            for u, w in itertools.permutations(set(comps), 2)
        )
    assert pruned > 20 and shared > 20


def test_meets_nontrivially_matches_rank_oracle():
    rng = random.Random(41)
    both = set()
    for _ in range(60):
        n = rng.randint(2, 5)
        comps = [
            RationalSubspace.span(n, random_subspace_basis(rng, n, rng.randint(1, n - 1)))
            for _ in range(rng.randint(1, 3))
        ]
        arr = SubspaceArrangement(n, comps)
        p = RationalSubspace.span(
            n, random_subspace_basis(rng, n, rng.randint(1, n - 1))
        )
        got = meets_nontrivially(p, arr)
        expect = any(
            meets_rank(list(p.basis), list(c.basis), n) for c in arr.components
        )
        assert got == expect
        both.add(got)
    assert both == {True, False}


def test_coordinate_subspace():
    u = coordinate_subspace(4, (2, 4))
    assert u.dim == 2
    assert u.contains_vector((0, 5, 0, -1))
    assert not u.contains_vector((1, 0, 0, 0))


def test_validation_errors():
    try:
        RationalSubspace.span(2, [(1, 0, 0)])
        assert False, "ambient mismatch must raise"
    except ValueError:
        pass
    try:
        SubspaceArrangement(2, [RationalSubspace.full(3)])
        assert False, "mixed ambients must raise"
    except ValueError:
        pass
