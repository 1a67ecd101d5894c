"""Rank tests on graded algebras: the multiplication-by-a cochain complex.

A graded algebra enters as bare presentation data: dimensions of the graded
pieces and, degree by degree, the structure constants of multiplication by
degree-one elements.  Fixing a rational point a in the degree-one piece
turns that data into a complex of exact matrices; the dimension drop of its
cohomology at a is what membership in a resonance locus means.  The module
stays a point oracle on purpose — components are enumerated elsewhere, and
here every reported number is an exact rank count over Q.

A presentation is stored in one form, sparse integer tensors, and checked
once, when it is constructed; every rank test reads those tensors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .qlinalg import (
    RationalSubspace,
    SubspaceArrangement,
    _echelon,  # aomoto_betti needs the incoming map's pivots, not only its rank
    qscalar,
    qvector,
    rank_int,
    rref,
)


class InconsistentPresentation(ValueError):
    """Well-formed tensors that fail symbolic square-zero: they cannot come
    from an associative algebra with a * a = 0."""


@dataclass(frozen=True, slots=True, init=False)
class GradedAlgebraPresentation:
    """Dimensions c_0..c_k plus degree-one multiplication tensors.

    dims[0] must be 1 (the unit).  The constructor takes the tensors dense:
    mult[i-1][j][b] is the coordinate vector in degree i+1 of e_j * u_b,
    for e_j the j-th degree-one basis element and u_b the b-th basis
    element of degree i (1 <= i <= k-1).  The degree-zero multiplication
    e_j * 1 = e_j is implicit.

    They are stored once, as sparse integers: tensors[i-1] is
    (scale, dst, cols) with dst = dims[i+1], and cols[b] lists, sorted by
    (j, r), the triples (r, j, c) with c = scale * mult[i-1][j][b][r]
    nonzero, so a * u_b is sum a_j c / scale over the triples, in
    coordinate r.  scale and the entries share no common factor, so equal
    algebras store equal tensors whichever way they were built:
    `from_sparse` takes this form directly, and `mult` rebuilds the dense
    one on every read.

    Every presentation is checked once, at construction, on the triples:
    graded commutativity, e_j * e_l = -(e_l * e_j) in degree 2 for every
    pair j <= l (for j = l, e_j * e_j = 0), and symbolic square-zero of
    every two consecutive degrees (else `InconsistentPresentation`).
    """

    dims: tuple
    tensors: tuple

    def __init__(self, dims, mult=()):
        mult = tuple(mult)
        dims = _checked_dims(dims, len(mult))
        _fill(self, dims, [_compile(i, dims, tensor) for i, tensor in enumerate(mult, start=1)])

    @classmethod
    def from_sparse(cls, dims, tensors) -> "GradedAlgebraPresentation":
        """The presentation whose sparse tensors are `tensors`, each
        (scale, dst, cols) as described in the class docstring.  The
        triples may come in any order, scale need not be reduced, and
        repeated (r, j) pairs are summed."""
        tensors = tuple(tensors)
        alg = object.__new__(cls)
        _fill(alg, _checked_dims(dims, len(tensors)), tensors)
        return alg

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    @property
    def n(self) -> int:
        return self.dims[1] if self.top >= 1 else 0

    @property
    def mult(self) -> tuple:
        """The dense tensors: mult[i-1][j][b][r] = c / scale for each triple
        (r, j, c) of u_b in tensors[i-1], and 0 elsewhere."""
        dense = []
        for (scale, dst, cols), src in zip(self.tensors, self.dims[1:]):
            zero = (Fraction(0),) * dst
            tensor = [[zero] * src for _ in range(self.n)]
            for b, col in enumerate(cols):
                for r, j, c in col:
                    vec = tensor[j][b]
                    if vec is zero:
                        vec = tensor[j][b] = list(zero)
                    vec[r] = Fraction(c, scale)
            dense.append(tuple(tuple(map(tuple, per_gen)) for per_gen in tensor))
        return tuple(dense)

    def padded(self) -> "GradedAlgebraPresentation":
        """Append a zero graded piece on top, so the old top degree gets a
        (zero) outgoing differential and becomes rank-testable."""
        zero = ((1, 0, ((),) * self.dims[-1]),) if self.top else ()
        return GradedAlgebraPresentation.from_sparse(self.dims + (0,), self.tensors + zero)


def _checked_dims(dims, count):
    """dims as a tuple of ints, checked, for `count` multiplication tensors."""
    dims = tuple(int(c) for c in dims)
    if not dims or dims[0] != 1:
        raise ValueError("dims must start with c_0 = 1")
    if any(c < 0 for c in dims):
        raise ValueError("negative dimension")
    k = len(dims) - 1
    if count != max(k - 1, 0):
        raise ValueError(f"need {max(k - 1, 0)} multiplication tensors for top degree {k}")
    return dims


def _compile(i, dims, tensor):
    """Dense tensor i, n x dims[i] vectors in Q^dims[i+1], as
    (scale, dst, cols): scale is the lcm of its denominators."""
    n, src, dst = dims[1], dims[i], dims[i + 1]
    tensor = tuple(tuple(qvector(vec) for vec in per_gen) for per_gen in tensor)
    if len(tensor) != n or any(len(per_gen) != src for per_gen in tensor):
        raise ValueError(f"tensor {i} must be indexed by {n} x {src}")
    if any(len(vec) != dst for per_gen in tensor for vec in per_gen):
        raise ValueError(f"tensor {i} values must live in Q^{dst}")
    scale = lcm(*(x.denominator for per_gen in tensor for vec in per_gen for x in vec))
    cols = [[] for _ in range(src)]
    for j, per_gen in enumerate(tensor):
        for col, vec in zip(cols, per_gen):
            col.extend(
                (r, j, x.numerator * (scale // x.denominator)) for r, x in enumerate(vec) if x
            )
    return scale, dst, cols


def _fill(alg, dims, tensors):
    """Store dims and the canonical form of the sparse `tensors` in alg,
    after checking them: the one check path of every presentation."""
    n = dims[1] if len(dims) > 1 else 0
    canonical = []
    for i, (scale, dst, cols) in enumerate(tensors, start=1):
        if len(cols) != dims[i]:
            raise ValueError(f"tensor {i} must be indexed by {n} x {dims[i]}")
        if dst != dims[i + 1]:
            raise ValueError(f"tensor {i} values must live in Q^{dims[i + 1]}")
        if not (type(scale) is int and scale > 0):
            raise ValueError(f"tensor {i} needs a positive integer scale")
        merged = []
        for col in cols:
            entries = {}
            for r, j, c in col:
                if not (0 <= j < n and 0 <= r < dst):
                    raise ValueError(f"tensor {i} has a triple ({r}, {j}, {c}) out of range")
                entries[j, r] = entries.get((j, r), 0) + c
            merged.append(sorted((jr, c) for jr, c in entries.items() if c))
        g = gcd(scale, *(c for col in merged for _, c in col))
        canonical.append(
            (scale // g, dst, tuple(tuple((r, j, c // g) for (j, r), c in col) for col in merged))
        )
    if canonical:
        _check_commutativity(n, canonical[0][2])
    _check_square_zero(n, canonical)
    object.__setattr__(alg, "dims", dims)
    object.__setattr__(alg, "tensors", tuple(canonical))


def _check_commutativity(n, cols):
    """Graded commutativity on the degree-1 tensor: the triples (r, j, c)
    of u_l = e_l give e_j e_l, which must be -(e_l e_j), for every pair
    j <= l in order.  The common scale cancels."""
    product = {}
    for l, col in enumerate(cols):
        for r, j, c in col:
            product.setdefault((j, l), {})[r] = c
    for j in range(n):
        for l in range(j, n):
            mirror = product.get((l, j), {})
            if product.get((j, l), {}) != {r: -c for r, c in mirror.items()}:
                raise ValueError(
                    f"graded commutativity fails on basis pair ({j + 1}, {l + 1})"
                )


@dataclass(frozen=True, slots=True)
class AomotoEvaluation:
    """The complex of exact matrices at one rational point.

    matrices[i] maps degree i to degree i+1, rows indexed by the target
    basis.  Consecutive matrices compose to zero: the presentation was
    checked symbolically, once, when it was constructed.
    """

    point: tuple
    matrices: tuple

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(self.point))
        object.__setattr__(self, "matrices", tuple(self.matrices))


def _integer_point(alg: GradedAlgebraPresentation, a):
    """(ints, den) with a = ints / den, after checking the length of a.

    A point of plain ints (bool excluded) is returned as it stands; every
    other point is coerced by qvector first, which refuses floats and
    booleans.
    """
    a = tuple(a)
    plain = all(type(x) is int for x in a)
    if not plain:
        a = qvector(a)
    if len(a) != alg.n:
        raise ValueError(f"point length {len(a)} != c_1 = {alg.n}")
    if plain:
        return list(a), 1
    den = lcm(*(x.denominator for x in a))
    return [x.numerator * (den // x.denominator) for x in a], den


def _source_rows(dst, cols, ints):
    """Row b holds scale * (a * u_b) at an integer point a, skipping the
    generators with a_j = 0: the transposed matrix of one sparse tensor."""
    rows = [[0] * dst for _ in cols]
    for row, col in zip(rows, cols):
        for r, j, c in col:
            if ints[j]:
                row[r] += ints[j] * c
    return rows


def aomoto_matrices(alg: GradedAlgebraPresentation, a) -> AomotoEvaluation:
    """Exact matrices of multiplication by a in every degree 0..k-1."""
    ints, den = _integer_point(alg, a)
    a = tuple(Fraction(x, den) for x in ints)
    mats = []
    if alg.top >= 1:
        mats.append(tuple((x,) for x in a))  # 1 |-> sum a_j e_j
    for scale, dst, cols in alg.tensors:
        rows = _source_rows(dst, cols, ints)
        mats.append(
            tuple(
                tuple(Fraction(row[r], den * scale) for row in rows)
                for r in range(dst)
            )
        )
    return AomotoEvaluation(a, mats)


def aomoto_betti(alg: GradedAlgebraPresentation, a, i: int) -> int:
    """Cohomology dimension of the multiplication-by-a complex in degree i.

    Requires 0 <= i <= k-1: the outgoing differential in degree i must be
    part of the data.  To rank-test the top degree itself, pad the algebra
    with a zero piece first.  Only degrees i-1 and i are built, as
    transposed integer matrices (a scaled to integers leaves every rank
    unchanged): row b of the outgoing map is a * u_b.

    Not every row of the outgoing map is ranked.  The presentation passed
    symbolic square-zero, so a * e = 0 for each e in the image of the
    incoming map, and sum_b e_b (a * u_b) = 0 is a relation among the
    rows.  The echelon rows of the incoming map span that image, each
    with its leading entry at a pivot column p, so row p is a combination
    of rows with larger indices; from the last pivot down, every pivot row
    lies in the span of the non-pivot rows.  Hence

        b_i = c_i - rank(incoming) - rank(outgoing without the pivot rows),

    exactly.  The incoming map needs its pivots, not just its rank, so its
    nonzero rows, built fresh here, are handed to `_echelon`; in degree 1
    it is the single row a, whose one pivot is the first j with a_j != 0.
    """
    if not (0 <= i <= alg.top - 1):
        raise ValueError(
            f"degree out of range: i = {i}, need 0 <= i <= {alg.top - 1}"
        )
    ints, _ = _integer_point(alg, a)
    if i == 0:
        return alg.dims[0] - (1 if any(ints) else 0)
    incoming = [ints] if i == 1 else _source_rows(*alg.tensors[i - 2][1:], ints)
    pivots = _echelon([r for r in incoming if any(r)])[1]
    skip = set(pivots)
    _, dst, cols = alg.tensors[i - 1]
    kept = [col for b, col in enumerate(cols) if b not in skip]
    return alg.dims[i] - len(pivots) - rank_int(_source_rows(dst, kept, ints))


def isotropy_obstruction(alg: GradedAlgebraPresentation, basis):
    """The first nonzero product of two basis vectors of L ⊆ A^1, or None.

    `basis` spans L and has k >= 2 vectors; the C(k, 2) products u_i u_j
    (i < j) are taken in A^2 in order.  The first nonzero one is returned
    as (i, j, product), with 1-based i, j and the exact coordinates of the
    product.  None means L is isotropic, and then L lies in the degree-1
    resonance: for nonzero a in L, a * L = 0, so the kernel of a on A^1
    holds L while its image from A^0 is the line through a, hence
    b_1(A, a) >= dim L - 1 >= 1.  Each basis vector is scaled to integers,
    and the products are read off the sparse degree-1 tensor.
    """
    if alg.top < 2:
        raise ValueError("isotropy needs the degree-2 piece")
    if len(basis) < 2:
        raise ValueError(f"isotropy needs at least 2 basis vectors, got {len(basis)}")
    scale, dst, cols = alg.tensors[0]
    scaled = [_integer_point(alg, u) for u in basis]
    pairs = itertools.combinations(enumerate(scaled, start=1), 2)
    for (i, (u, du)), (j, (v, dv)) in pairs:
        # scale * (u * v)_r = sum of v_b u_l c over the triples (r, l, c) of u_b
        product = [0] * dst
        for b, y in enumerate(v):
            for r, l, c in cols[b] if y else ():
                product[r] += y * u[l] * c
        if any(product):
            return i, j, tuple(Fraction(x, scale * du * dv) for x in product)
    return None


def resonance_member(alg: GradedAlgebraPresentation, a, i: int, d: int) -> bool:
    """Does the degree-i cohomology at a have dimension >= d?

    Depth 0 is answered by the same rank test as every other depth, so it
    refuses the degrees and points that depth 1 refuses.
    """
    if d < 0:
        raise ValueError("depth must be >= 0")
    return aomoto_betti(alg, a, i) >= d


# ---------------------------------------------------------------------------
# the universal (symbolic) complex


def universal_aomoto(alg: GradedAlgebraPresentation):
    """Matrices of linear forms x_1..x_n, one per degree 0..k-1.

    Each entry is the tuple of rational coefficients of (x_1, ..., x_n).
    Consecutive matrices compose to the zero quadratic form in the x's:
    the presentation was checked symbolically at construction.
    """
    n = alg.n
    mats = []
    if alg.top >= 1:
        mats.append(
            tuple(
                (tuple(Fraction(1 if t == j else 0) for t in range(n)),)
                for j in range(n)
            )
        )
    for deg, tensor in enumerate(alg.mult, start=1):
        src, dst = alg.dims[deg], alg.dims[deg + 1]
        rows = []
        for r in range(dst):
            rows.append(
                tuple(
                    tuple(tensor[j][b][r] for j in range(n))
                    for b in range(src)
                )
            )
        mats.append(tuple(rows))
    return mats


def _check_square_zero(n, compiled):
    """Symbolic square-zero of every two consecutive degrees, from 0 up,
    on the sparse triples of degrees >= 1 of an algebra with n degree-one
    generators."""
    sparse = [cols for _, _, cols in compiled]
    if compiled:
        sparse.insert(0, (tuple((j, j, 1) for j in range(n)),))  # 1 |-> sum x_j e_j
    for where in range(len(sparse) - 1):
        _check_symbolic_square_zero(sparse[where + 1], sparse[where], where)


def _check_symbolic_square_zero(b, a, where):
    """Each coefficient of x_j x_l (j <= l) in coordinate r of a * (a * u_s)
    must vanish: it sums x * y over the triples (k, j, x) of a[s] and
    (r, l, y) of b[k], composing source by source.  A positive common
    scale per degree does not change whether a coefficient vanishes.
    """
    for col in a:
        quad = {}
        for k, j, x in col:
            for r, l, y in b[k]:
                key = (r, j, l) if j <= l else (r, l, j)
                quad[key] = quad.get(key, 0) + x * y
        if any(quad.values()):
            raise InconsistentPresentation(
                f"inconsistent presentation: symbolic composition at degree "
                f"{where} is nonzero"
            )


# ---------------------------------------------------------------------------
# stock algebras


def exterior_algebra(n: int, top=None) -> GradedAlgebraPresentation:
    """The exterior algebra on n degree-one generators, truncated at `top`
    (default n).  Multiplication by a generator is wedge, with the sign
    that sorts the result."""
    if top is None:
        top = n
    if not (0 <= top <= n):
        raise ValueError("truncation degree out of range")
    dims = tuple(comb(n, i) for i in range(top + 1))
    bases = [list(itertools.combinations(range(n), i)) for i in range(top + 1)]
    index = [{s: b for b, s in enumerate(level)} for level in bases]
    tensors = []
    for i in range(1, top):
        tensor = []
        for j in range(n):
            per_gen = []
            for subset in bases[i]:
                vec = [Fraction(0)] * dims[i + 1]
                if j not in subset:
                    merged = tuple(sorted(subset + (j,)))
                    sign = (-1) ** sum(1 for s in subset if s < j)
                    vec[index[i + 1][merged]] = Fraction(sign)
                per_gen.append(tuple(vec))
            tensor.append(tuple(per_gen))
        tensors.append(tuple(tensor))
    return GradedAlgebraPresentation(dims, tensors)


def quotient_exterior_algebra(n: int, relations) -> GradedAlgebraPresentation:
    """Degree-two truncation of the exterior algebra on n generators
    modulo the span of the given degree-two relations.

    Relations are dicts {(i, j): coeff} with 0-based i < j in the
    pair-basis of the exterior square.  The quotient basis is the set of
    non-pivot pairs after row reduction.  Each product e_j e_l, j < l, is
    read off the RREF in closed form: a kept pair stays a unit vector, and
    a pivot pair is minus the kept part of its relation row.  Then
    e_l e_j = -e_j e_l, and e_j e_j = 0.
    """
    pairs = list(itertools.combinations(range(n), 2))
    pair_index = {p: b for b, p in enumerate(pairs)}
    rel_rows = []
    for rel in relations:
        row = [Fraction(0)] * len(pairs)
        for (i, j), coeff in rel.items():
            if not (0 <= i < j < n):
                raise ValueError(f"bad pair ({i}, {j})")
            row[pair_index[(i, j)]] += qscalar(coeff)
        rel_rows.append(row)
    red, pivots = rref(rel_rows)
    pivot_row = dict(zip(pivots, red))
    kept = [b for b in range(len(pairs)) if b not in pivot_row]
    zero = (Fraction(0),) * len(kept)

    product = {}  # e_j e_l for j < l, in the kept basis
    for pos, b in enumerate(kept):
        product[pairs[b]] = zero[:pos] + (Fraction(1),) + zero[pos + 1:]
    for b, row in pivot_row.items():
        product[pairs[b]] = _negated(row[c] for c in kept)
    tensor = tuple(
        tuple(
            product[(j, l)] if j < l
            else _negated(product[(l, j)]) if j > l
            else zero
            for l in range(n)
        )
        for j in range(n)
    )
    dims = (1, n, len(kept))
    return GradedAlgebraPresentation(dims, (tensor,))


def _negated(vec):
    """-vec as a tuple; zero entries are kept as they are, not negated."""
    return tuple(-x if x else x for x in vec)


def surface_algebra(g: int) -> GradedAlgebraPresentation:
    """Cohomology of the closed orientable genus-g surface: 2g degree-one
    generators pairing symplectically into a one-dimensional top degree."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    n = 2 * g
    tensor = []
    for j in range(n):
        per_gen = []
        for l in range(n):
            if l == j + g:
                per_gen.append((Fraction(1),))
            elif j == l + g:
                per_gen.append((Fraction(-1),))
            else:
                per_gen.append((Fraction(0),))
        tensor.append(tuple(per_gen))
    return GradedAlgebraPresentation((1, n, 1), (tuple(tensor),))


def s1s2_algebra(c) -> GradedAlgebraPresentation:
    """One generator in each degree 0..3; the only non-forced product is
    degree 1 times degree 2, scaled by the rational parameter."""
    c = qscalar(c)
    t1 = (((Fraction(0),),),)   # e1 * e1 = 0
    t2 = (((c,),),)             # e1 * u = c w
    return GradedAlgebraPresentation((1, 1, 1, 1), (t1, t2))


# ---------------------------------------------------------------------------
# closed-form loci for the stock examples


def s1s2_resonance(fprime1) -> dict:
    """Degree-1 and degree-2 loci for the one-cell-per-degree family, with
    the degree-3 attaching map contributing the derivative value at 1."""
    c = qscalar(fprime1)
    r1 = SubspaceArrangement(1, ())
    if c != 0:
        r2 = SubspaceArrangement(1, ())
    else:
        r2 = SubspaceArrangement(1, [RationalSubspace.full(1)])
    return {1: r1, 2: r2}


def product_resonance(arrs1, arrs2, i: int) -> SubspaceArrangement:
    """Set-level degree-i locus of a product from per-degree loci of the
    factors: union over p + q = i of pairwise direct sums.

    arrs1[p] is the degree-p arrangement of the first factor (index 0 is
    the trivial degree-0 locus), and likewise arrs2.  A trivial
    arrangement contributes its origin, so {0} x V means V embedded.
    """
    arrs1 = list(arrs1)
    arrs2 = list(arrs2)
    if not arrs1 or not arrs2:
        raise ValueError("need per-degree arrangements for both factors")
    n1 = arrs1[0].n
    n2 = arrs2[0].n
    if any(a.n != n1 for a in arrs1) or any(a.n != n2 for a in arrs2):
        raise ValueError("inconsistent ambient dimensions")
    out = []
    for p in range(len(arrs1)):
        q = i - p
        if not (0 <= q < len(arrs2)):
            continue
        comps1 = arrs1[p].components or (RationalSubspace.zero(n1),)
        comps2 = arrs2[q].components or (RationalSubspace.zero(n2),)
        for u in comps1:
            for v in comps2:
                rows = [r + (0,) * n2 for r in u.rows]
                rows += [(0,) * n1 + r for r in v.rows]
                out.append(RationalSubspace(n1 + n2, rows))
    return SubspaceArrangement(n1 + n2, out)


def wedge_resonance(n1: int, n2: int, i: int) -> SubspaceArrangement:
    """Degree-i locus of a one-point union: the full space in every
    positive degree up to the truncation, provided both halves have
    something in degree one."""
    if n1 < 1 or n2 < 1:
        raise ValueError("both factors need positive first Betti number")
    if i < 0:
        raise ValueError("degree must be >= 0")
    if i == 0:
        return SubspaceArrangement(n1 + n2, ())
    return SubspaceArrangement(
        n1 + n2, [RationalSubspace.full(n1 + n2)]
    )
