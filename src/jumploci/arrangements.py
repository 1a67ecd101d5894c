"""Degree-1 resonance of complex line arrangements, computed combinatorially.

An arrangement is given by rational linear forms in three variables
(lines in the projective plane).  Its degree-1 resonance variety is a
finite union of linear subspaces of Q^n, n the number of lines: one
"local" component for every intersection point lying on at least three
lines, plus "braid" components attached to the complete quadrangles of
the arrangement: four points of multiplicity >= 3, no three on a line,
whose six joins are lines of the arrangement.

Every component this module reports is certified exactly before being
returned: its basis vectors multiply pairwise to 0 in the degree-2
Orlik-Solomon algebra (aomoto.isotropy_obstruction).  Such an isotropic
subspace of dimension >= 2 lies in the resonance variety, and every
component of that variety is isotropic (Libgober and Yuzvinsky,
"Cohomology of the Orlik-Solomon algebras and local systems", Compositio
Math. 2000), so the certificate refuses no true component.  A failed
certificate raises OracleError rather than silently dropping or keeping
the candidate.  The certificate proves containment, not maximality;
maximality rests on the theory behind the local and braid patterns and
on the check that the components meet pairwise only in 0.  The check
that the rank oracle sees no jump off the union is sampled at random
points of the hyperplane sum a_i = 0, off which H^1(A, a) = 0
(Yuzvinsky); it is not a proof, and a pencil, whose one component is
that whole hyperplane, skips it.

Each arrangement computes its incidence data (multiple_points), its
degree-2 Orlik-Solomon algebra (os_algebra_deg2) and its braid
components (braid_subarrangements) once, on first use, and keeps them.
The incidence data is integer arithmetic on the forms scaled to
primitive integers.  The algebra is written in closed form from it, with
no row reduction: by Brieskorn's decomposition A^2 = sum over points p of
A^2_p (Orlik and Terao, "Arrangements of Hyperplanes", 1992), A^2 has
the basis e_a e_L, one for each point and each of its lines a below its
last line L.  The braid search is refused above LINE_LIMIT lines.

Components beyond the local and braid patterns can exist for
arrangements rich enough in triple points; see r1_completeness_note,
which the certificate leaves unchanged.
"""

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd

from .aomoto import _degree_two, aomoto_betti, isotropy_obstruction
from .qlinalg import (
    RationalSubspace,
    SubspaceArrangement,
    _primitive,
    intersection_dim,
    qvector,
)

# Most lines the braid search accepts.  At 32 lines (1,096 braids) it takes
# about 0.1 s and `arr res1` under 1 s.
LINE_LIMIT = 32


class OracleError(Exception):
    """A component failed its certificate, or the rank oracle saw a jump off the union.

    The certificate is exact: a component is refused when two of its basis
    vectors multiply to a nonzero class in A^2, and the message names that
    product.  Isotropy proves a component lies in the resonance variety
    (Libgober-Yuzvinsky), not that it is maximal.  The check off the union
    is sampled at random points of the sum-zero hyperplane, not a proof
    (a pencil, whose one component is that hyperplane, skips it), and
    r1_completeness_note is unchanged by either check.
    """


# ---------------------------------------------------------------------------
# arrangement and incidence data
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ProjLineArrangement:
    """Lines in P^2, each given by a rational linear form (a, b, c).

    Forms must be nonzero and pairwise non-proportional.  Lines are
    numbered 1..n in input order everywhere in this module.  The
    incidence data, the algebra and the braid components are filled in on
    first use by multiple_points, os_algebra_deg2 and
    braid_subarrangements, then kept.
    """

    forms: tuple
    _points: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _algebra: object = field(default=None, init=False, compare=False, repr=False)
    _braids: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        cleaned = []
        for f in self.forms:
            f = qvector(f)
            if len(f) != 3:
                raise ValueError("each form needs exactly 3 coefficients")
            if not any(f):
                raise ValueError("zero form is not a line")
            cleaned.append(f)
        for i in range(len(cleaned)):
            for j in range(i + 1, len(cleaned)):
                if _cross(cleaned[i], cleaned[j]) == (0, 0, 0):
                    raise ValueError(f"forms {i + 1} and {j + 1} are proportional")
        object.__setattr__(self, "forms", tuple(cleaned))

    @property
    def n(self):
        return len(self.forms)


@dataclass(frozen=True, slots=True)
class MultiplePoint:
    """An intersection point together with the (1-based) lines through it."""

    point: tuple
    lines: tuple

    def __post_init__(self):
        lines = tuple(sorted(self.lines))
        if len(lines) < 2:
            raise ValueError("a multiple point lies on at least two lines")
        object.__setattr__(self, "point", qvector(self.point))
        object.__setattr__(self, "lines", lines)

    @property
    def multiplicity(self):
        return len(self.lines)


def _cross(f, g):
    return (
        f[1] * g[2] - f[2] * g[1],
        f[2] * g[0] - f[0] * g[2],
        f[0] * g[1] - f[1] * g[0],
    )


def _dot3(f, p):
    return f[0] * p[0] + f[1] * p[1] + f[2] * p[2]


def _meet(f, g):
    """The point where the lines of the integer forms f and g cross: their
    cross product divided by its gcd, first nonzero entry positive."""
    p = _cross(f, g)
    d = gcd(*p)
    if (p[0] or p[1] or p[2]) < 0:
        d = -d
    return (p[0] // d, p[1] // d, p[2] // d)


def multiple_points(arr: ProjLineArrangement):
    """All intersection points, each with the full set of lines through it.

    Pairwise cross products give candidate points; projective
    normalization (primitive integers, first nonzero entry positive)
    makes equality exact, and the line set of each point is recomputed
    by substitution so it is complete, whatever pair produced the point.
    Both run on the forms scaled once to primitive integers, which
    changes neither a normalized point nor an incidence, so crossing,
    normalizing and substituting are integer arithmetic.  Computed on the
    first call and kept on `arr`.
    """
    if arr._points is None:
        forms = [_primitive(f) for f in arr.forms]
        seen = {}
        for i in range(arr.n):
            for j in range(i + 1, arr.n):
                p = _meet(forms[i], forms[j])
                if p not in seen:
                    lines = [k + 1 for k, f in enumerate(forms) if not _dot3(f, p)]
                    seen[p] = MultiplePoint(p, lines)
        points = sorted(seen.values(), key=lambda m: (-m.multiplicity, m.lines))
        object.__setattr__(arr, "_points", tuple(points))
    return arr._points


# ---------------------------------------------------------------------------
# resonance components
# ---------------------------------------------------------------------------


def local_components(arr: ProjLineArrangement) -> SubspaceArrangement:
    """One subspace per point on >= 3 lines.

    For a point on the line set J, the component is the vectors supported
    on J with coordinate sum 0, spanned by e_j - e_{min J} for j in J; its
    dimension is |J| - 1.
    """
    return SubspaceArrangement(arr.n, _local_subspaces(arr))


def _local_subspaces(arr):
    n = arr.n
    return [
        RationalSubspace(n, [_signed_row(n, (j,), p.lines[:1]) for j in p.lines[1:]])
        for p in multiple_points(arr)
        if p.multiplicity >= 3
    ]


def _signed_row(n, plus, minus):
    """1 on the lines `plus`, -1 on the lines `minus` and 0 elsewhere."""
    return [1 if k in plus else -1 if k in minus else 0 for k in range(1, n + 1)]


@dataclass(frozen=True, slots=True)
class BraidComponent:
    """The six joins of a complete quadrangle and their resonance component.

    ``lines`` is the sorted 6-tuple of (1-based) line indices, ``pairs``
    the three pairs of opposite sides (lines sharing no triple point),
    and ``subspace`` the 2-dimensional resonance component they span.
    """

    lines: tuple
    pairs: tuple
    subspace: RationalSubspace

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(sorted(self.lines)))
        object.__setattr__(
            self, "pairs", tuple(sorted(tuple(sorted(p)) for p in self.pairs))
        )


def _check_line_limit(arr):
    if arr.n > LINE_LIMIT:
        raise ValueError(
            f"too many lines: {arr.n} exceeds the braid scan limit of {LINE_LIMIT}"
        )


def braid_subarrangements(arr: ProjLineArrangement):
    """All certified braid components, in index-tuple order.

    A braid sub-arrangement is a complete quadrangle of `arr`: four points
    of multiplicity >= 3, no three on a line, whose six joins are lines of
    `arr`.  Opposite sides are the matched pairs; they meet in the three
    diagonal points, which are double, as a complete quadrangle over Q has
    three distinct ones.  So the search joins every two such points by
    their common line, if any, and grows a < b < c < d along joined pairs,
    keeping the quadruples whose six joins are distinct.  With pairs p1,
    p2, p3 and u_p the indicator vector of pair p, the component is
    spanned by u1 - u3 and u2 - u3.  Each candidate is certified exactly,
    by isotropy in the degree-2 algebra (see the module docstring;
    Libgober-Yuzvinsky): this proves it lies in the resonance variety,
    not that it is maximal, and a candidate that fails raises OracleError
    naming the nonzero product.  The sampled check off the union, not a
    proof, belongs to r1_arrangement and does not run here;
    r1_completeness_note is unchanged.  The search runs on the first call
    and its result is kept on `arr`.  More than LINE_LIMIT lines raise
    ValueError before any of this work starts.
    """
    _check_line_limit(arr)
    if arr._braids is None:
        algebra = os_algebra_deg2(arr)
        rich = [p.lines for p in multiple_points(arr) if p.multiplicity >= 3]
        join, later = {}, [set() for _ in rich]
        for (a, p), (b, q) in combinations(enumerate(rich), 2):
            common = set(p).intersection(q)  # two points share at most one line
            if common:
                join[a, b] = common.pop()
                later[a].add(b)
        found = []
        for a, b in join:
            for c in later[a] & later[b]:
                for d in later[a] & later[b] & later[c]:
                    sides = [join[e] for e in combinations((a, b, c, d), 2)]
                    if len(set(sides)) == 6:
                        found.append(_braid(arr.n, sides))
        found.sort(key=lambda braid: braid.lines)
        for braid in found:
            _certify(algebra, braid.subspace, f"braid candidate {braid.lines}")
        object.__setattr__(arr, "_braids", tuple(found))
    return arr._braids


def _braid(n, sides):
    """The braid component on the joins of four points in `combinations`
    order, where sides i and 5 - i are opposite."""
    pairs = sorted(tuple(sorted((sides[i], sides[5 - i]))) for i in range(3))
    sub = RationalSubspace(n, [_signed_row(n, p, pairs[2]) for p in pairs[:2]])
    return BraidComponent(sides, pairs, sub)


def _certify(algebra, subspace, what):
    """Raise OracleError unless the rows of `subspace` are isotropic in A^2."""
    obstruction = isotropy_obstruction(algebra, subspace.rows)
    if obstruction is not None:
        i, j, product = obstruction
        raise OracleError(
            f"{what} is not isotropic: basis vectors {i} and {j} multiply to "
            f"({', '.join(map(str, product))}) in A^2"
        )


def r1_arrangement(arr: ProjLineArrangement, seed=0) -> SubspaceArrangement:
    """The local and braid components of the degree-1 resonance arrangement.

    Only these two patterns are searched, so components of other kinds
    (multinets on nine or more lines, as on B3) are missing from the
    result; r1_completeness_note says when that can happen, and the
    certificate below leaves it unchanged.

    Every component is certified exactly, once: the local ones here and
    the braid ones by the search that finds them.  The certificate is
    isotropy in the degree-2 algebra (Libgober-Yuzvinsky), which proves
    containment in the resonance variety, not maximality.  The checks then
    run in this order:

    - every component lies in the hyperplane sum a_i = 0 (Yuzvinsky);
    - 10 random points of that hyperplane off the union, drawn from
      `seed`, show no jump.  Off the hyperplane H^1(A, a) = 0 (Yuzvinsky),
      so a draw there would test nothing.  When a component is the whole
      hyperplane (a pencil) or n < 2, no point of it lies off the union
      and none is drawn.  This check is sampled, not a proof;
    - the components meet each other only in 0.  Each vector of a
      component is constant on its classes (its lines grouped by equal
      columns of its rows), so two components U and V meet only in 0
      unless two classes of U lie inside the support of V and two classes
      of V inside that of U.  A local component's classes are its lines, a
      braid plane's its three pairs of opposite sides.  An index from each
      line to the components whose support holds it finds, for each U, the
      later components that hold two whole classes of U; only those that
      also pass the test the other way round get an elimination.

    Any of these checks failing raises (OracleError for a failed
    certificate or a jump off the union, ValueError for the other two).
    More than LINE_LIMIT lines raise ValueError before any work starts.
    """
    _check_line_limit(arr)
    algebra = os_algebra_deg2(arr)
    comps = _local_subspaces(arr)
    for sub in comps:
        _certify(algebra, sub, f"component of dim {sub.dim}")
    comps.extend(b.subspace for b in braid_subarrangements(arr))
    result = SubspaceArrangement(arr.n, comps)
    pieces = result.components
    # The pair check below needs every component in the hyperplane, and the
    # sampling leans on it too, so it is checked first.
    if any(sum(row) for piece in pieces for row in piece.rows):
        raise ValueError("components must pairwise meet only in 0")
    shapes = [_classes(p) for p in pieces]
    if arr.n >= 2 and all(p.dim < arr.n - 1 for p in pieces):
        rng = random.Random(seed)
        supports = [support for support, _ in shapes]
        for _ in range(10):
            a = _random_off_union(pieces, supports, arr.n, rng)
            if aomoto_betti(algebra, a, 1) != 0:
                raise OracleError(f"rank oracle sees a jump off the union at {a}")
    # Group the support of a component U by equal columns of its rows: U's
    # classes.  Every u in U is constant on each class and 0 off the
    # support, so a nonzero v in U n V is nonzero on whole classes of U,
    # all inside the support of V.  Inside the hyperplane sum a_i = 0 it
    # needs two of them: v = x 1_C on a single class C has sum |C| x, so
    # x = 0.  With U and V swapped the same holds, so only pairs where two
    # classes of each lie inside the other's support need an elimination.
    # The columns must be equal, not proportional: a class of proportional
    # columns can carry a nonzero vector of sum 0.
    holding = [0] * arr.n  # bit j of holding[k]: line k+1 is in supp of piece j
    for j, (support, _) in enumerate(shapes):
        for k in _bits(support):
            holding[k] |= 1 << j
    for i, (support_u, classes_u) in enumerate(shapes):
        once = twice = 0  # the pieces holding one, and two, whole classes of U
        for c in classes_u:
            hold = -1
            for k in _bits(c):
                hold &= holding[k]
            twice |= once & hold
            once |= hold
        for j in _bits(twice >> (i + 1)):
            j += i + 1
            if _two_inside(shapes[j][1], support_u) and intersection_dim(
                pieces[i], pieces[j]
            ):
                raise ValueError("components must pairwise meet only in 0")
    return result


def _bits(mask):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _classes(subspace):
    """The support of the subspace and its classes (the coordinates of the
    support grouped by equal columns of its rows), as bitmasks (bit k for
    coordinate k+1)."""
    classes = {}
    for k, column in enumerate(zip(*subspace.rows)):
        if any(column):
            classes[column] = classes.get(column, 0) | 1 << k
    return sum(classes.values()), tuple(classes.values())


def _two_inside(classes, support):
    """Do at least two of the classes lie inside the support?"""
    return sum(c & support == c for c in classes) >= 2


def _random_off_union(pieces, supports, n, rng):
    """A random nonzero point of the hyperplane sum a_i = 0 in Q^n in none
    of the pieces: n - 1 entries in -9..9, and the last minus their sum.
    A piece holds the point only if its support (a bitmask, bit k for
    coordinate k+1) covers the point's, so only those pieces are tested."""
    while True:
        head = [rng.randint(-9, 9) for _ in range(n - 1)]
        v = (*head, -sum(head))
        support = sum(1 << k for k, x in enumerate(v) if x)
        if support and not any(
            s & support == support and p.contains_vector(v)
            for p, s in zip(pieces, supports)
        ):
            return v


def r1_completeness_note(arr: ProjLineArrangement):
    """Warn when components beyond the braid pattern could exist.

    Non-local components live on sub-arrangements partitioned into three
    classes with all inter-class intersections concurrent along multiple
    points; beyond the six-line braid pattern the smallest such carriers
    have nine lines, each passing through at least two points of
    multiplicity >= 3.  So when nine or more lines are that rich in
    triple points, the reported decomposition may miss components and
    the string "possibly incomplete beyond braid type" is returned;
    otherwise None.
    """
    points = multiple_points(arr)
    rich = set()
    per_line = {}
    for mp in points:
        if mp.multiplicity >= 3:
            for line in mp.lines:
                per_line[line] = per_line.get(line, 0) + 1
                if per_line[line] >= 2:
                    rich.add(line)
    if len(rich) >= 9:
        return "possibly incomplete beyond braid type"
    return None


# ---------------------------------------------------------------------------
# coarse cover bounds and the cohomology-ring presentation
# ---------------------------------------------------------------------------


def omega_bounds(arr: ProjLineArrangement, r: int):
    """Coarse answer for the rank-r cover invariant: 'full', 'empty', or 'undetermined'.

    With m the maximum multiplicity of an intersection point: only
    double points means the invariant is the whole Grassmannian;
    m >= 3 forces it empty once r >= n - m + 2; anything else needs the
    exact membership test.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    points = multiple_points(arr)
    m = max((mp.multiplicity for mp in points), default=2)
    if m == 2:
        return "full"
    if r >= arr.n - m + 2:
        return "empty"
    return "undetermined"


def os_algebra_deg2(arr: ProjLineArrangement):
    """Degree <= 2 part of the arrangement's cohomology ring, as a presentation.

    Degree 1 has one generator per line; degree 2 is the exterior square
    modulo one relation (e_i - e_j)(e_j - e_k) for every concurrent
    triple i < j < k of lines.  By Brieskorn's decomposition
    A^2 = sum over points p of A^2_p (Orlik and Terao, "Arrangements of
    Hyperplanes", 1992) it has a basis read off the incidence data alone:
    for each point on the lines l_0 < ... < L, the products e_a e_L with
    a < L, all these pairs (a, L) sorted.  They are the non-pivot pairs
    of the row-reduced relations (aomoto.quotient_exterior_algebra), so
    the presentation is the same.  A product e_j e_l, j < l, is e_j e_L
    when l = L and e_j e_L - e_l e_L otherwise, every entry 1 or -1, and
    `aomoto._degree_two` writes these products straight into the sparse
    integer form, as it does for every degree-2 stock algebra.  Built on the
    first call and kept on `arr`, so all callers share one presentation.
    """
    if arr._algebra is None:
        object.__setattr__(arr, "_algebra", _orlik_solomon(arr.n, multiple_points(arr)))
    return arr._algebra


def _orlik_solomon(n, points):
    """The degree-2 Orlik-Solomon presentation of n lines with the given
    multiple points, in the closed form of os_algebra_deg2: the products
    e_j e_l, j < l, handed to `aomoto._degree_two`."""
    last, kept = {}, []
    for p in points:
        lines = [k - 1 for k in p.lines]
        kept.extend((a, lines[-1]) for a in lines[:-1])
        for pair in combinations(lines, 2):
            last[pair] = lines[-1]
    kept.sort()
    index = {pair: r for r, pair in enumerate(kept)}
    product = {}  # e_j e_l for j < l, as (r, c)
    for (j, l), top in last.items():
        if l == top:
            product[j, l] = ((index[j, l], 1),)
        else:
            product[j, l] = ((index[j, top], 1), (index[l, top], -1))
    return _degree_two(n, len(kept), product)
