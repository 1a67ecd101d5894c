"""Exact linear algebra over the rationals.

Everything downstream leans on this module: matrices with Fraction entries,
linear subspaces of Q^n held in reduced row-echelon canonical form, finite
unions of such subspaces, and the integer-lattice coset test that decides
whether a rational translation vector lands back in a subspace modulo Z^n.

No floats anywhere.  Two subspaces are equal iff their canonical bases are
equal, so subspace equality is plain `==` on the objects.

Membership is decided over the integers, with no Fraction elimination: a
subspace reads integer equations straight off its RREF basis, one per
non-pivot column, and keeps them together with its basis scaled to
primitive integer rows.  A vector is scaled to integers and checked
against the equations; a subspace is contained when its integer basis
satisfies them; an intersection dimension is a rank of the two integer
bases stacked; and the lattice coset test reads the same equations.

Every rank, RREF and kernel over Q comes from one integer elimination
kernel, `_echelon`: rows are scaled to primitive integer rows once, and
`rank_int`, `rref` and `nullspace` read their answers off its echelon form.
Two eliminations stay apart because they answer different questions:
`hermite_reduce` uses only unimodular row operations, since the row lattice
over Z must not change, and `laurent._zt_det` eliminates over Z[t].
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import gcd, lcm

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


def _echelon(rows):
    """Forward elimination of integer rows: (echelon rows, pivot columns).

    Zero rows are dropped.  Each pivot row clears the column below itself
    by integer row combinations a*row - b*pivot_row with a, b the pivot and
    entry divided by their gcd; rows above the pivot are left alone and no
    row is rescaled, so entries stay exact and Fraction-free.
    """
    mat = [list(r) for r in rows if any(r)]
    pivots = []
    if not mat:
        return mat, pivots
    ncols = len(mat[0])
    rk = 0
    for c in range(ncols):
        piv = None
        for i in range(rk, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        prow = mat[rk]
        pv = prow[c]
        for i in range(rk + 1, len(mat)):
            v = mat[i][c]
            if v:
                row = mat[i]
                g = gcd(pv, v)
                a, b = pv // g, v // g
                mat[i] = [a * x - b * y for x, y in zip(row, prow)]
        pivots.append(c)
        rk += 1
        if rk == len(mat):
            break
    del mat[rk:]
    return mat, pivots


def rank_int(rows) -> int:
    """Rank of an integer matrix: the pivot count of its forward elimination.

    Rows may be any iterables of ints.
    """
    return len(_echelon(rows)[1])


def rref(rows):
    """Reduced row-echelon form.

    Returns (rows, pivots): the nonzero rows of the RREF as Fraction tuples
    and the tuple of pivot column indices.  The input is not modified.
    Entries may be ints, Fractions or anything qscalar accepts; only the
    entries that are neither int nor Fraction are coerced.  The rows are
    scaled to primitive integers once; after forward elimination, each
    pivot row, bottom up, clears its column in the rows above by the same
    integer combinations, and only then is each row divided by its pivot.
    """
    rows = [[x if isinstance(x, (int, Q)) else qscalar(x) for x in r] for r in rows]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    mat, pivots = _echelon([_primitive(r) for r in rows])
    for k in range(len(pivots) - 1, 0, -1):
        prow, c = mat[k], pivots[k]
        pv = prow[c]
        for i in range(k):
            v = mat[i][c]
            if v:
                g = gcd(pv, v)
                a, b = pv // g, v // g
                mat[i] = [a * x - b * y for x, y in zip(mat[i], prow)]
    out = tuple(
        tuple(Q(x, row[c]) for x in row) for row, c in zip(mat, pivots)
    )
    return out, tuple(pivots)


def nullspace(rows, ncols=None):
    """Canonical basis of {x : M x = 0}, as RREF rows.

    `ncols` is required when `rows` is empty (the kernel is then all of Q^n).
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        if ncols is None:
            raise ValueError("ncols needed for an empty matrix")
        return tuple(_unit_row(ncols, j) for j in range(ncols))
    red, pivots = rref(rows)
    n = len(rows[0])
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    basis = []
    for j in free:
        v = [Q(0)] * n
        v[j] = Q(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][j]
        basis.append(v)
    return rref(basis)[0]


def _unit_row(n, j):
    return tuple(Q(1) if i == j else Q(0) for i in range(n))


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True, slots=True)
class RationalSubspace:
    """A linear subspace of Q^n, stored as its RREF canonical basis.

    Equality and hashing go through the canonical basis, so two subspaces
    compare equal exactly when they are the same subspace of the same Q^n.
    The integer equations and the primitive integer basis behind the
    predicates are built on first use and kept; they take no part in
    equality, hashing or repr.
    """

    n: int
    rows: InitVar[tuple] = ()
    basis: tuple = field(init=False)
    dim: int = field(init=False)
    _equations: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _int_basis: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self, rows):
        if self.n < 0:
            raise ValueError("ambient dimension must be >= 0")
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != self.n:
                raise ValueError(f"vector length {len(r)} != ambient dimension {self.n}")
        red, _ = rref(rows)
        object.__setattr__(self, "basis", red)
        object.__setattr__(self, "dim", len(red))

    # -- constructors ------------------------------------------------------

    @classmethod
    def span(cls, n, vectors):
        return cls(n, vectors)

    @classmethod
    def _canonical(cls, n, basis):
        """The subspace whose RREF basis is already `basis` (as nullspace
        returns it), without row-reducing it again."""
        s = object.__new__(cls)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "basis", basis)
        object.__setattr__(s, "dim", len(basis))
        object.__setattr__(s, "_equations", None)
        object.__setattr__(s, "_int_basis", None)
        return s

    @classmethod
    def zero(cls, n):
        return cls(n, ())

    @classmethod
    def full(cls, n):
        return cls(n, [_unit_row(n, j) for j in range(n)])

    @classmethod
    def from_equations(cls, n, eqs):
        """Solution space of the homogeneous system eqs . x = 0."""
        eqs = [tuple(e) for e in eqs]
        for e in eqs:
            if len(e) != n:
                raise ValueError("equation length mismatch")
        return cls._canonical(n, nullspace(eqs, n))

    # -- predicates --------------------------------------------------------

    def contains_vector(self, v) -> bool:
        """Is v in the subspace?  v is scaled to integers and checked against
        the integer equations read off the RREF basis."""
        return self._satisfies(self._integer_vector(v))

    def contains_subspace(self, other: "RationalSubspace") -> bool:
        """Is `other` inside this subspace?  A larger subspace never is;
        otherwise the primitive integer basis of `other` is checked against
        the integer equations of this one."""
        self._check_ambient(other)
        if other.dim > self.dim:
            return False
        return all(self._satisfies(r) for r in other._integer_basis())

    def is_zero(self) -> bool:
        return self.dim == 0

    def codim(self) -> int:
        return self.n - self.dim

    # -- derived subspaces -------------------------------------------------

    def annihilator(self) -> "RationalSubspace":
        """{y : y . b = 0 for every b in this subspace} — same ambient Q^n."""
        return RationalSubspace._canonical(self.n, nullspace(self.basis, self.n))

    # -- plumbing ----------------------------------------------------------

    def _integer_vector(self, v):
        """v checked against the ambient dimension and scaled to primitive
        integers."""
        v = qvector(v)
        if len(v) != self.n:
            raise ValueError("vector length mismatch")
        return _primitive(v)

    def _satisfies(self, ints):
        """Does the integer vector `ints` satisfy every integer equation?"""
        return not any(
            sum(c * ints[k] for k, c in eq) for eq in self._integer_equations()
        )

    def _integer_equations(self):
        """Sparse integer equations cutting out the subspace, read off the
        RREF basis with no elimination.

        With pivot rows r_i at columns p_i, a vector x lies in the span
        exactly when x = sum_i x_{p_i} r_i, that is when, for every
        non-pivot column j, L x_j - sum_i L r_i[j] x_{p_i} = 0, where L is
        the lcm of the basis denominators.  Each equation is a tuple of
        (column, integer coefficient) pairs.  Built on first use, then kept.
        """
        if self._equations is None:
            scale = lcm(*(x.denominator for r in self.basis for x in r))
            pivots = [next(j for j, x in enumerate(r) if x) for r in self.basis]
            pivot_set = set(pivots)
            eqs = []
            for j in range(self.n):
                if j in pivot_set:
                    continue
                eq = [(j, scale)]
                for p, r in zip(pivots, self.basis):
                    x = r[j]
                    if x:
                        eq.append((p, -x.numerator * (scale // x.denominator)))
                eqs.append(tuple(eq))
            object.__setattr__(self, "_equations", tuple(eqs))
        return self._equations

    def _integer_basis(self):
        """The basis rows scaled to primitive integers, built on first use
        and then kept."""
        if self._int_basis is None:
            ints = tuple(tuple(_primitive(r)) for r in self.basis)
            object.__setattr__(self, "_int_basis", ints)
        return self._int_basis

    def _check_ambient(self, other):
        if self.n != other.n:
            raise ValueError(f"ambient dimensions differ: {self.n} vs {other.n}")


def subspace_sum(u: RationalSubspace, v: RationalSubspace) -> RationalSubspace:
    u._check_ambient(v)
    return RationalSubspace(u.n, u.basis + v.basis)


def subspace_intersect(u: RationalSubspace, v: RationalSubspace) -> RationalSubspace:
    """Intersection via annihilators: ann(U n V) = ann(U) + ann(V)."""
    u._check_ambient(v)
    joined = u.annihilator().basis + v.annihilator().basis
    return RationalSubspace._canonical(u.n, nullspace(joined, u.n))


def intersection_dim(u: RationalSubspace, v: RationalSubspace) -> int:
    """dim(U n V) without building the intersection: dim U + dim V - dim(U+V),
    the last a rank of the two kept primitive integer bases stacked."""
    u._check_ambient(v)
    return u.dim + v.dim - rank_int(u._integer_basis() + v._integer_basis())


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
        comps = []
        for c in self.components:
            if not isinstance(c, RationalSubspace):
                raise TypeError("components must be RationalSubspace instances")
            if c.n != self.n:
                raise ValueError("component ambient dimension mismatch")
            if c.dim > 0:
                comps.append(c)
        comps = _prune_maximal(comps)
        comps.sort(key=lambda s: (-s.dim, s.basis))
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
        if not self.components:
            return self.n
        return min(c.codim() for c in self.components)

    def union(self, other: "SubspaceArrangement") -> "SubspaceArrangement":
        if self.n != other.n:
            raise ValueError("ambient dimensions differ")
        return SubspaceArrangement(self.n, self.components + other.components)

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


def _prune_maximal(comps):
    """The distinct members not contained in another member.  Only a member
    of larger dimension is tested: two distinct subspaces of the same
    dimension never contain each other."""
    uniq = list(dict.fromkeys(comps))
    return [
        c
        for c in uniq
        if not any(d.dim > c.dim and d.contains_subspace(c) for d in uniq)
    ]


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
    done = []
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

    Write U as the kernel of an integer matrix A (the integer equations
    read off its RREF).  Then q - m in U for some integer m iff A q lies in
    the lattice A Z^n, which is an exact Hermite-form membership test.
    """
    q = qvector(q)
    if len(q) != u.n:
        raise ValueError("vector length mismatch")
    eqs = u._integer_equations()
    if not eqs:  # U is all of Q^n
        return True
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
