"""Exact linear algebra over the rationals.

Everything downstream leans on this module: matrices with Fraction entries,
linear subspaces of Q^n held in one canonical integer form, finite unions
of such subspaces, and the integer-lattice coset test that decides whether
a rational translation vector lands back in a subspace modulo Z^n.

No floats anywhere.  A subspace is stored once, as the rows of its reduced
row-echelon form scaled to coprime integers with a positive pivot.  That
form is canonical, so subspace equality is plain `==` on the objects; the
Fraction RREF basis is read off it only for output.

Membership is decided over the integers, with no Fraction elimination: a
subspace builds its integer equations from its rows, one per non-pivot
column, on first use, and keeps them.  A vector is scaled to integers and
checked against the equations; a subspace is contained when its rows
satisfy them; an intersection dimension is a rank of the two row sets
stacked, which reads no equations; and the lattice coset test reads the
same equations.

Every rank, RREF and kernel over Q comes from one integer elimination
kernel, `_echelon`, which eliminates in place the list of rows its caller
hands over and never writes into a row.  `rank_int` and `aomoto_betti`
read its pivots.  Every other path goes through `_primitive_rows`, which
checks every length and scales each row to primitive integers, then
`_reduced`, whose rows come out canonical: a subspace stores them as they
are, and kernels and `rref` are read off them.  The Fraction wrappers
`rref` and `nullspace` have no caller in the package; they stay as the
tests' references and as names the benchmark traces.  Three eliminations
stay apart because they answer different questions: `hermite_reduce` uses
only unimodular row operations, since the row lattice over Z must not
change, `laurent._zt_det` eliminates over Z[t], and `laurent._annihilate`
cuts an annihilator down one vector at a time inside the tangent-cone
search, where no subspace is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, groupby
from math import gcd, lcm
from operator import attrgetter

Q = Fraction


def qscalar(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to an exact rational;
    floats and booleans are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floats are not allowed; pass an int, a Fraction, or a 'p/q' string")
    raise TypeError(f"cannot interpret {x!r} as a rational scalar")


def qvector(seq) -> tuple[Fraction, ...]:
    return tuple(qscalar(x) for x in seq)


# ---------------------------------------------------------------------------
# elimination


def _primitive(v):
    """Scale a vector of ints or Fractions by a positive rational to coprime
    integers; a zero vector stays zero."""
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _primitive_rows(rows, n):
    """The nonzero rows scaled to primitive integers, as fresh lists.

    Every length is checked against n (n None: against the first row, else
    the matrix is ragged) before any entry is read.  Entries may be ints,
    Fractions, bools or anything qscalar accepts; only those neither int
    nor Fraction are coerced, and a matrix of plain ints is not at all.
    """
    rows = [list(r) for r in rows]
    m = n if n is not None else len(rows[0]) if rows else 0
    for r in rows:
        if len(r) != m:
            if n is None:
                raise ValueError("ragged matrix")
            raise ValueError(f"vector length {len(r)} != ambient dimension {n}")
    out = []
    if {int}.issuperset(map(type, chain.from_iterable(rows))):
        for r in rows:
            g = gcd(*r)
            if g:
                out.append([x // g for x in r] if g > 1 else r)
        return out
    for r in rows:
        r = _primitive([x if isinstance(x, (int, Q)) else qscalar(x) for x in r])
        if any(r):
            out.append(r)
    return out


def _echelon(mat, reduce=False):
    """Elimination of the integer rows in `mat`, a list the caller hands
    over (zero rows best left out): (mat, pivot columns), in place.

    Each pivot row clears its column below itself, and with `reduce` above
    too, by combinations a*row - b*pivot_row, a and b the pivot and entry
    over their gcd.  A combination is a new list put in the row's slot, so
    no row handed over is written to.  On return `mat` holds one row per
    pivot: echelon rows, or with `reduce` multiples of the RREF rows.
    """
    pivots = []
    m = len(mat)
    rk = 0
    for c in range(len(mat[0]) if m else 0):
        for i in range(rk, m):
            if mat[i][c]:
                break
        else:
            continue
        prow = mat[i]
        mat[i] = mat[rk]
        mat[rk] = prow
        pv = prow[c]
        for i in range(0 if reduce else rk + 1, m):
            v = mat[i][c]
            if v and i != rk:
                g = gcd(pv, v)
                a, b = pv // g, v // g
                mat[i] = [a * x - b * y for x, y in zip(mat[i], prow)]
        pivots.append(c)
        rk += 1
        if rk == m:
            break
    del mat[rk:]
    return mat, pivots


def _reduced(mat):
    """The canonical rows of `mat`, handed over to `_echelon` to be reduced:
    (rows, pivot columns).  Each row is divided by its content, signed like
    its pivot, so the rows come back as the RREF rows scaled to coprime
    integers with a positive pivot, in tuples: the form a subspace stores.
    """
    mat, pivots = _echelon(mat, reduce=True)
    for k, c in enumerate(pivots):
        r = mat[k]
        g = gcd(*r) if r[c] > 0 else -gcd(*r)
        mat[k] = tuple(r) if g == 1 else tuple([x // g for x in r])
    return tuple(mat), pivots


def _kernel(mat, pivots, n):
    """Sparse integer vectors spanning {x : M x = 0}, for M in reduced
    echelon form with n columns, such as the canonical rows `_reduced`
    returns and a subspace stores; M is only read.

    One vector per non-pivot column j: L at j and -(L / d) r[j] at the
    pivot column of each row r with pivot entry d, where L is the lcm of
    the pivot entries.  Each vector is a tuple of (column, integer entry)
    pairs, j first, then the pivot columns in order, zeros left out.
    """
    scale = lcm(*(r[c] for r, c in zip(mat, pivots)))
    pivot_set = set(pivots)
    out = []
    for j in range(n):
        if j in pivot_set:
            continue
        vec = [(j, scale)]
        for r, c in zip(mat, pivots):
            if r[j]:
                vec.append((c, -(scale // r[c]) * r[j]))
        out.append(tuple(vec))
    return tuple(out)


def _dense(n, sparse):
    """Sparse (column, entry) vectors as dense integer rows of length n."""
    rows = []
    for vec in sparse:
        row = [0] * n
        for k, x in vec:
            row[k] = x
        rows.append(row)
    return rows


def rank_int(rows) -> int:
    """Rank of an integer matrix: the pivot count of its forward elimination.

    Rows may be any sequences of ints.  The nonzero ones, uncopied, make up
    the list that `_echelon` eliminates, which only reads them.
    """
    return len(_echelon([r for r in rows if any(r)])[1])


def rref(rows):
    """Reduced row-echelon form.

    Returns (rows, pivots): the nonzero rows of the RREF as Fraction tuples
    and the tuple of pivot column indices.  The input is not modified.
    Entries may be ints, Fractions or anything qscalar accepts; rows of
    unequal length are refused before any entry is read.  The rows are
    reduced over the integers to the canonical rows a subspace stores;
    only then is each row divided by its pivot.
    """
    mat, pivots = _reduced(_primitive_rows(rows, None))
    out = tuple(
        tuple(Q(x, row[c]) for x in row) for row, c in zip(mat, pivots)
    )
    return out, tuple(pivots)


def nullspace(rows, ncols=None):
    """Canonical basis of {x : M x = 0}, as RREF rows.

    `ncols` is required when `rows` is empty (the kernel is then all of Q^n).
    """
    rows = [tuple(r) for r in rows]
    if not rows and ncols is None:
        raise ValueError("ncols needed for an empty matrix")
    n = len(rows[0]) if rows else ncols
    return RationalSubspace.from_equations(n, rows).basis


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True, slots=True)
class RationalSubspace:
    """A linear subspace of Q^n, stored as its RREF rows scaled to coprime
    integers with a positive pivot.

    The rows are canonical, so two subspaces compare equal exactly when
    they are the same subspace of the same Q^n.  The sparse integer
    equations behind the membership predicates, one per non-pivot column,
    are built from the rows on first use and kept in `_equations`; they
    take no part in equality, hashing or repr.
    """

    n: int
    rows: tuple = ()
    dim: int = field(init=False)
    _equations: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ambient dimension must be >= 0")
        rows = _reduced(_primitive_rows(self.rows, self.n))[0]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dim", len(rows))

    @property
    def equations(self):
        """Sparse integer equations cutting out the subspace, one per
        non-pivot column (see `_kernel`), built on first use."""
        eqs = self._equations
        if eqs is None:
            pivots = [next(j for j, x in enumerate(r) if x) for r in self.rows]
            eqs = _kernel(self.rows, pivots, self.n)
            object.__setattr__(self, "_equations", eqs)
        return eqs

    @property
    def basis(self):
        """The RREF basis: each row divided by its pivot, as Fractions."""
        out = []
        for r in self.rows:
            d = next(x for x in r if x)
            out.append(tuple(Q(x, d) for x in r))
        return tuple(out)

    # -- constructors ------------------------------------------------------

    @classmethod
    def span(cls, n, vectors):
        return cls(n, vectors)

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    @classmethod
    def full(cls, n):
        return cls(n, [[int(i == j) for i in range(n)] for j in range(n)])

    @classmethod
    def from_equations(cls, n, eqs):
        """Solution space of the homogeneous system eqs . x = 0."""
        mat, pivots = _reduced(_primitive_rows(eqs, n))
        return cls(n, _dense(n, _kernel(mat, pivots, n)))

    # -- predicates --------------------------------------------------------

    def contains_vector(self, v) -> bool:
        """Is v in the subspace?  v is scaled to integers and checked against
        the integer equations."""
        return self._satisfies(self._integer_vector(v))

    def contains_subspace(self, other: "RationalSubspace") -> bool:
        """Is `other` inside this subspace?  A larger subspace never is;
        otherwise the rows of `other` are checked against the integer
        equations of this one."""
        self._check_ambient(other)
        if other.dim > self.dim:
            return False
        return all(self._satisfies(r) for r in other.rows)

    def codim(self) -> int:
        return self.n - self.dim

    # -- derived subspaces -------------------------------------------------

    def annihilator(self) -> "RationalSubspace":
        """{y : y . b = 0 for every b in this subspace} — same ambient Q^n:
        the span of the integer equations."""
        return RationalSubspace(self.n, _dense(self.n, self.equations))

    # -- plumbing ----------------------------------------------------------

    def _integer_vector(self, v):
        """v checked against the ambient dimension and scaled to primitive
        integers; a non-int entry (bool too) sends v through qvector first."""
        v = tuple(v)
        if not all(type(x) is int for x in v):
            v = qvector(v)
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        return _primitive(v)

    def _satisfies(self, ints):
        """Does the integer vector `ints` satisfy every integer equation?"""
        return not any(sum(c * ints[k] for k, c in eq) for eq in self.equations)

    def _check_ambient(self, other):
        if self.n != other.n:
            raise ValueError(f"ambient dimensions differ: {self.n} vs {other.n}")


def subspace_sum(u: RationalSubspace, v: RationalSubspace) -> RationalSubspace:
    u._check_ambient(v)
    return RationalSubspace(u.n, u.rows + v.rows)


def subspace_intersect(u: RationalSubspace, v: RationalSubspace) -> RationalSubspace:
    """Intersection via annihilators: ann(U n V) = ann(U) + ann(V)."""
    u._check_ambient(v)
    return RationalSubspace.from_equations(u.n, _dense(u.n, u.equations + v.equations))


def intersection_dim(u: RationalSubspace, v: RationalSubspace) -> int:
    """dim(U n V) without building the intersection: dim U + dim V - dim(U+V),
    the last a rank of the two sets of integer rows stacked."""
    u._check_ambient(v)
    return u.dim + v.dim - rank_int(u.rows + v.rows)


# ---------------------------------------------------------------------------
# arrangements (finite unions of subspaces)


@dataclass(frozen=True, slots=True)
class SubspaceArrangement:
    """A finite union of linear subspaces of Q^n, kept as the maximal members.

    Zero-dimensional components are dropped on construction: in every context
    here the origin belongs to the union whenever it is nonempty, so {0} adds
    nothing, and an empty component list stands for the trivial locus.
    Components contained in other components are pruned; order is canonical.
    """

    n: int
    components: tuple = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ambient dimension must be >= 0")
        comps = []
        for c in self.components:
            if not isinstance(c, RationalSubspace):
                raise TypeError("components must be RationalSubspace instances")
            if c.n != self.n:
                raise ValueError("component ambient dimension mismatch")
            if c.dim > 0:
                comps.append(c)
        comps = _prune_maximal(comps)
        comps.sort(key=cmp_to_key(_basis_order))
        object.__setattr__(self, "components", tuple(comps))

    def is_trivial(self) -> bool:
        return not self.components

    def contains_vector(self, v) -> bool:
        """Is v in some component?  v is scaled to integers once, then
        checked against the integer equations of each component."""
        if not self.components:
            return False
        ints = self.components[0]._integer_vector(v)
        return any(c._satisfies(ints) for c in self.components)

    def codim(self) -> int:
        """Codimension of the union (ambient n if there are no components)."""
        return min((c.codim() for c in self.components), default=self.n)

    def intersect(self, other: "SubspaceArrangement") -> "SubspaceArrangement":
        """Componentwise intersections, pruned to maximal members."""
        if self.n != other.n:
            raise ValueError("ambient dimensions differ")
        out = [
            subspace_intersect(a, b)
            for a in self.components
            for b in other.components
        ]
        return SubspaceArrangement(self.n, out)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)


def _basis_order(u, v):
    """Compare two subspaces by (-dim, basis) without building Fractions.
    A basis row is an integer row over its positive pivot, so two entries
    x / d and y / e compare as x * e and y * d."""
    if u.dim != v.dim:
        return v.dim - u.dim
    for a, b in zip(u.rows, v.rows):
        d = next(x for x in a if x)
        e = next(y for y in b if y)
        for x, y in zip(a, b):
            diff = x * e - y * d
            if diff:
                return diff
    return 0


def _prune_maximal(comps):
    """The distinct members not contained in another member, largest
    dimension first.

    The members are taken one dimension at a time, from the largest down,
    and each is tested only against the members already kept, all of
    larger dimension, whose support covers its own; only then is
    `contains_subspace` called.  Two distinct subspaces of one dimension
    never contain each other, U in V forces supp U in supp V, and a member
    inside a dropped one is inside the kept member that holds that one.
    """
    kept = []  # (support, member) of each member kept so far
    by_dim = sorted(dict.fromkeys(comps), key=attrgetter("dim"), reverse=True)
    for _, group in groupby(by_dim, attrgetter("dim")):
        maximal = []
        for c in group:
            s = _support(c.rows)
            if not any(t & s == s and d.contains_subspace(c) for t, d in kept):
                maximal.append((s, c))
        kept.extend(maximal)
    return [c for _, c in kept]


def _support(rows):
    """The coordinates where some row is nonzero, as a bitmask (bit k for
    coordinate k+1)."""
    return sum(1 << k for k, column in enumerate(zip(*rows)) if any(column))


def meets_nontrivially(p: RationalSubspace, arr: SubspaceArrangement) -> bool:
    """Does P meet some component of the union in dimension >= 1?"""
    if p.n != arr.n:
        raise ValueError("ambient dimensions differ")
    return any(intersection_dim(p, c) >= 1 for c in arr.components)


# ---------------------------------------------------------------------------
# integer lattices


def hermite_reduce(rows):
    """Row-style Hermite reduction of an integer matrix.

    Returns the nonzero rows of an echelon basis for the row lattice
    (unimodular row operations only), pivots positive.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        # gcd-combine every lower row into the pivot row
        for i in range(r + 1, len(mat)):
            while mat[i][c]:
                q = mat[r][c] // mat[i][c]
                mat[r] = [a - q * b for a, b in zip(mat[r], mat[i])]
                mat[r], mat[i] = mat[i], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r])


def in_row_lattice(hermite_rows, target) -> bool:
    """Is the integer vector `target` an integer combination of the rows?

    `hermite_rows` must come from hermite_reduce.
    """
    v = list(target)
    for row in hermite_rows:
        c = next(j for j, x in enumerate(row) if x)
        if v[c] % row[c] != 0:
            return False
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def coset_in_subspace_mod_lattice(q, u: RationalSubspace) -> bool:
    """Decide whether q + Z^n meets U, i.e. q - m lies in U for some m in Z^n.

    Write U as the kernel of an integer matrix A (its integer equations).
    Then q - m in U for some integer m iff A q lies in the lattice A Z^n,
    which is an exact Hermite-form membership test.  For U = Q^n, A has no
    rows and the test holds.
    """
    q = qvector(q)
    if len(q) != u.n:
        raise ValueError("vector length mismatch")
    eqs = u.equations
    target = [sum(c * q[k] for k, c in eq) for eq in eqs]
    # A Z^n is generated by the columns of A; a non-integer image can never
    # be hit by integer combinations of integer columns.
    if any(v.denominator != 1 for v in target):
        return False
    cols = [[0] * len(eqs) for _ in range(u.n)]
    for i, eq in enumerate(eqs):
        for k, c in eq:
            cols[k][i] = c
    return in_row_lattice(hermite_reduce(cols), [int(v) for v in target])


# ---------------------------------------------------------------------------
# misc helpers shared by the geometry modules


def primitive_integer_vector(v):
    """Scale a rational vector to primitive integers, first nonzero positive."""
    ints = _primitive(qvector(v))
    if next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints)
