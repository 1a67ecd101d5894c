"""Independent recomputation used by the tests.

Everything here deliberately avoids the package's own linear algebra:
ranks come from sympy, coset membership from bounded brute-force search,
partitions from restricted-growth strings, toric and graph resonance from
sweeps over every vertex subset, vertex connectivity from every vertex
cut, one-variable factorizations, gcds and chain loci from sympy's
polynomial arithmetic, tangent-cone equality from sympy's factoring of the
form into linear pieces, and the resonance components of
line arrangements from their defining equations and their braid
sub-arrangements from a scan of every six lines.  The tests freeze expected
values computed by these slow oracles and then assert the fast code
paths agree.

Three parts lean on the package on purpose.  points_without_jump samples
the package's rank oracle, aomoto_betti, on reported arrangement
components: that oracle shares no code with the isotropy certificate the
components carry.  toric_resonance_levelwise is the package's former
search, level by level from the empty set over link_faces and
reduced_betti_faces: it shares the Betti kernel with the package but not
the search or the per-degree passing test, and it is fast enough for 14
vertices, where the sweep is not.  exp_tangent_cone_by_partitions is the
package's former exponential tangent cone, one subspace per finest
admissible partition: it shares the partition enumeration with the
package's pruned cover search, but not the pruning or the flats.  The
helpers at the end wrap or build package values for the tests, and
nothing in the package calls them.

The Fraction reduction route is kept here as the oracle of the integer
predicates: a vector lies in a subspace exactly when reducing it against
the RREF basis leaves zero, and the degree-2 Orlik-Solomon products are
the wedges reduced against the relation rows.  The multiple points of a
line arrangement are likewise recomputed from the Fraction forms as
given, with Fraction crossings and substitutions.
"""

import functools
import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from jumploci.aomoto import GradedAlgebraPresentation, aomoto_betti
from jumploci.arrangements import MultiplePoint
from jumploci.laurent import LaurentPolynomial, admissible_partitions
from jumploci.qlinalg import (
    RationalSubspace,
    SubspaceArrangement,
    primitive_integer_vector,
    qscalar,
    qvector,
)
from jumploci.simplicial import (
    SimplicialComplex,
    link_faces,
    reduced_betti,
    reduced_betti_faces,
)

Q = Fraction


def sympy_rank(rows):
    if not rows:
        return 0
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    return m.rank()


def sympy_betti(alg, a, i):
    """Betti number from dense Fraction matrices built straight from
    alg.mult and ranked by sympy."""

    def matrix(deg):
        if deg == 0:
            return [[x] for x in a]
        tensor = alg.mult[deg - 1]
        return [
            [
                sum((a[j] * tensor[j][b][r] for j in range(alg.n)), Q(0))
                for b in range(alg.dims[deg])
            ]
            for r in range(alg.dims[deg + 1])
        ]

    rank_in = sympy_rank(matrix(i - 1)) if i >= 1 else 0
    return alg.dims[i] - rank_in - sympy_rank(matrix(i))


def rref_sympy(rows):
    """(rows, pivots) of the reduced row-echelon form, zero rows dropped,
    from sympy.Matrix.rref over the rationals."""
    if not rows or not rows[0]:
        return (), ()
    red, pivots = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rref()
    out = tuple(
        tuple(Q(str(x)) for x in red.row(i)) for i in range(len(pivots))
    )
    return out, tuple(pivots)


def sympy_nullspace(rows, ncols):
    """Canonical (RREF) basis of the kernel: sympy's nullspace basis,
    brought to reduced row-echelon form by sympy again."""
    if not rows or not rows[0]:
        return rref_sympy([[int(i == j) for j in range(ncols)] for i in range(ncols)])[0]
    m = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
    basis = m.nullspace()
    if not basis:
        return ()
    return rref_sympy([list(v) for v in basis])[0]


def integer_rank(rows):
    """Rank of a matrix with integer entries (ints or integral Fractions),
    by sympy's DomainMatrix over ZZ: the same rank as sympy_rank, faster."""
    if not rows or not rows[0]:
        return 0
    return DomainMatrix(
        [[ZZ(int(x)) for x in row] for row in rows], (len(rows), len(rows[0])), ZZ
    ).rank()


def meets_rank(p_basis, l_basis, n):
    """Do the two spans share a nonzero vector?  Decided by stacking bases:
    dim(P + L) < dim P + dim L exactly when the intersection is nonzero."""
    dp = sympy_rank(p_basis)
    dl = sympy_rank(l_basis)
    return sympy_rank(list(p_basis) + list(l_basis)) < dp + dl


def meets_coordinate_piece(basis, w, n):
    """Does the span of the integer rows `basis` meet Q^W (W 1-based) in a
    nonzero vector?  dim(P ∩ Q^W) = dim P + |W| - dim(P + Q^W), each a rank
    of stacked integer rows."""
    units = [[int(j + 1 == v) for j in range(n)] for v in w]
    return integer_rank(list(basis) + units) < integer_rank(basis) + len(units)


def integer_equations(rows, n):
    """The sparse integer equations of the span of `rows`, read off sympy's
    RREF: for each non-pivot column j, L (e_j - sum of b[j] e_c) over the
    RREF rows b with pivot column c and b[j] != 0, as (column, entry) pairs
    in that order.  L is the lcm of the pivot entries of the rows b scaled
    to coprime integers."""
    basis, pivots = rref_sympy(rows)
    scale = 1
    for b in basis:
        den = lcm(*(x.denominator for x in b))
        scale = lcm(scale, den // gcd(*(int(x * den) for x in b)))
    eqs = []
    for j in range(n):
        if j in pivots:
            continue
        eq = [(j, scale)]
        eq += [(c, int(-scale * b[j])) for b, c in zip(basis, pivots) if b[j]]
        eqs.append(tuple(eq))
    return tuple(eqs)


def in_span(vector, basis):
    r = sympy_rank(basis)
    return sympy_rank(list(basis) + [vector]) == r


def brute_coset_hits(q, basis, n, box):
    """Does q + lambda lie in the span for some integer shift with
    |lambda_i| <= box?  Exhaustive search, each shifted point reduced
    against sympy's RREF of the basis; the bound must be chosen by the
    caller to cover the denominators in play."""
    reduced = rref_sympy(basis)[0]
    for shift in itertools.product(range(-box, box + 1), repeat=n):
        moved = [qi + si for qi, si in zip(q, shift)]
        if not any(reduce_vector(moved, reduced)):
            return True
    return False


def rg_partitions(items):
    """All set partitions, from restricted-growth strings."""
    items = list(items)
    k = len(items)
    if k == 0:
        yield []
        return
    rgs = [0] * k
    while True:
        nblocks = max(rgs) + 1
        blocks = [[] for _ in range(nblocks)]
        for item, b in zip(items, rgs):
            blocks[b].append(item)
        yield blocks
        # advance to the next restricted-growth string
        i = k - 1
        while i > 0 and rgs[i] > max(rgs[:i]):
            rgs[i] = 0
            i -= 1
        if i == 0:
            return
        rgs[i] += 1


def _unit_equations(n, lines):
    """x_k = 0 for every line k (1-based) of Q^n not in `lines`."""
    return [
        tuple(int(c == k) for c in range(1, n + 1))
        for k in range(1, n + 1)
        if k not in lines
    ]


def local_component_equations(n, lines):
    """Equations of the local resonance component at a point on `lines`:
    coordinate sum 0 over `lines`, and 0 off them."""
    member = set(lines)
    eqs = [tuple(int(k in member) for k in range(1, n + 1))]
    return eqs + _unit_equations(n, member)


def braid_component_equations(n, pairs):
    """Equations of the braid component on three matched pairs (a, b): x_a = x_b
    on every pair, the three pair values sum to 0, and 0 off the six lines."""
    eqs = [tuple(int(k == a) - int(k == b) for k in range(1, n + 1)) for a, b in pairs]
    firsts = {a for a, _ in pairs}
    eqs.append(tuple(int(k in firsts) for k in range(1, n + 1)))
    return eqs + _unit_equations(n, {line for p in pairs for line in p})


def braid_pattern(points, subset):
    """Pairs of the matching when `subset` carries the braid pattern, else None.

    The pattern: the induced intersection points of the six chosen lines
    include exactly four triples, and each chosen line lies on exactly
    two of them.  (A point of higher induced multiplicity is then
    impossible by pair counting.)  Two lines are matched when they share
    no induced triple; the counts force this to be a perfect matching
    into three pairs.
    """
    chosen = set(subset)
    triples = []
    for mp in points:
        induced = chosen.intersection(mp.lines)
        if len(induced) == 3:
            triples.append(induced)
        elif len(induced) > 3:
            return None
    if len(triples) != 4:
        return None
    if any(sum(line in t for t in triples) != 2 for line in subset):
        return None
    # the two triples on a line meet only in it, so they miss exactly one line
    pairs = []
    for line in subset:
        (mate,) = chosen.difference(*(t for t in triples if line in t))
        if line < mate:
            pairs.append((line, mate))
    return tuple(sorted(pairs))


def braid_scan(n, points):
    """(lines, pairs) of every braid sub-arrangement, in index-tuple order,
    by testing every 6-subset of the n lines against the multiple points."""
    found = []
    for subset in itertools.combinations(range(1, n + 1), 6):
        pairs = braid_pattern(points, subset)
        if pairs is not None:
            found.append((subset, pairs))
    return found


def multiple_points_by_fractions(forms):
    """The intersection points of the lines `forms`, as the package found
    them in Fractions: each pair of forms crossed as given, the crossing
    scaled to primitive integers with its first nonzero entry positive,
    and every line through it found by Fraction substitution.  Sorted by
    decreasing multiplicity, then by lines."""
    forms = [qvector(f) for f in forms]
    seen = {}
    for f, g in itertools.combinations(forms, 2):
        cross = (
            f[1] * g[2] - f[2] * g[1],
            f[2] * g[0] - f[0] * g[2],
            f[0] * g[1] - f[1] * g[0],
        )
        p = primitive_integer_vector(cross)
        if p not in seen:
            lines = [k + 1 for k, h in enumerate(forms) if not sum(x * y for x, y in zip(h, p))]
            seen[p] = MultiplePoint(p, lines)
    return tuple(sorted(seen.values(), key=lambda m: (-m.multiplicity, m.lines)))


def points_without_jump(alg, subspace, rng, samples=10):
    """The sampled rank check of a degree-1 resonance component.

    Draws `samples` nonzero integer combinations a of the basis of
    `subspace` and returns those where aomoto_betti(alg, a, 1) is 0.  An
    empty list is evidence that the component lies in the resonance
    variety, not a proof.
    """
    misses = []
    drawn = 0
    while drawn < samples:
        coeffs = [rng.randint(-9, 9) for _ in subspace.basis]
        a = tuple(
            sum((c * row[k] for c, row in zip(coeffs, subspace.basis)), Q(0))
            for k in range(subspace.n)
        )
        if any(a):
            drawn += 1
            if aomoto_betti(alg, a, 1) < 1:
                misses.append(a)
    return misses


def random_vector(rng, n, lo=-5, hi=5):
    return tuple(Q(rng.randint(lo, hi)) for _ in range(n))


def random_subspace_basis(rng, n, dim, lo=-5, hi=5):
    """Integer row vectors spanning an exactly dim-dimensional subspace."""
    if dim == 0:
        return []
    while True:
        rows = [[Q(rng.randint(lo, hi)) for _ in range(n)] for _ in range(dim)]
        if integer_rank(rows) == dim:
            return rows


def random_laurent_terms(rng, n, max_terms):
    """Support/coefficient pairs with coefficient sum zero (the polynomial
    vanishes at the identity), at least two terms, exponents in a small box."""
    distinct = 5 ** n  # exponents live in {-2..2}^n
    while True:
        size = rng.randint(2, min(max_terms, distinct))
        support = set()
        while len(support) < size:
            support.add(tuple(rng.randint(-2, 2) for _ in range(n)))
        support = sorted(support)
        coeffs = [Q(rng.randint(-3, 3)) for _ in support[:-1]]
        coeffs.append(-sum(coeffs))
        terms = {e: c for e, c in zip(support, coeffs) if c != 0}
        if len(terms) >= 2:
            return terms


def all_complexes(n, complex_cls):
    """Every simplicial complex on vertex set {1..n} with all vertices
    present, built one dimension at a time: the faces of each size are an
    arbitrary family whose boundaries all appeared at the previous size."""
    verts = tuple(range(1, n + 1))
    if n == 0:
        yield complex_cls((), 0)
        return

    def powerset(seq):
        for r in range(len(seq) + 1):
            yield from itertools.combinations(seq, r)

    def extend(levels, size):
        prev = set(levels[-1])
        candidates = [
            c
            for c in itertools.combinations(verts, size)
            if all(s in prev for s in itertools.combinations(c, size - 1))
        ]
        for chosen in powerset(candidates):
            grown = levels + [chosen]
            if size == n or not chosen:
                yield grown
            else:
                yield from extend(grown, size + 1)

    for levels in extend([tuple((v,) for v in verts)], 2):
        yield complex_cls([f for lvl in levels for f in lvl], n)


def canonical_graphs(n):
    """One edge list per isomorphism class of simple graphs on n vertices
    (1-based labels).  A graph is kept when its edge bitmask is minimal in
    its relabeling orbit."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    for mask in range(1 << len(pairs)):
        minimal = True
        for perm in perms:
            image = 0
            for i, (a, b) in enumerate(pairs):
                if mask >> i & 1:
                    pa, pb = perm[a], perm[b]
                    image |= 1 << index[(pa, pb) if pa < pb else (pb, pa)]
            if image < mask:
                minimal = False
                break
        if minimal:
            yield [
                (a + 1, b + 1)
                for i, (a, b) in enumerate(pairs)
                if mask >> i & 1
            ]


def _connected(vertices, edges):
    """Is the graph on the vertex set `vertices` with the edges inside it
    connected?  The empty graph is."""
    vertices = set(vertices)
    if not vertices:
        return True
    seen = {min(vertices)}
    stack = list(seen)
    while stack:
        a = stack.pop()
        for e in edges:
            if a in e:
                b = e[0] + e[1] - a
                if b in vertices and b not in seen:
                    seen.add(b)
                    stack.append(b)
    return seen == vertices


def raag_r1_sweep(n, edges):
    """Degree-1 resonance of the right-angled Artin group, by the sweep over
    all 2^n vertex subsets: the maximal subsets inducing a disconnected
    subgraph.  Returns (maximal subsets, sorted; does ∅ pass), the shape of
    toric_resonance_sweep; ∅ passes iff n >= 1."""
    passing = [
        frozenset(w)
        for size in range(1, n + 1)
        for w in itertools.combinations(range(1, n + 1), size)
        if not _connected(w, edges)
    ]
    maximal = [w for w in passing if not any(w < v for v in passing)]
    return tuple(sorted(tuple(sorted(w)) for w in maximal)), n >= 1


def connectivity_by_cuts(n, edges):
    """Vertex connectivity by trying every vertex cut, smallest first:
    0 for a disconnected graph, n - 1 (or 0 for n = 0) for a complete one."""
    verts = range(1, n + 1)
    if len(set(map(frozenset, edges))) == n * (n - 1) // 2:
        return max(n - 1, 0)
    for k in range(n - 1):
        for cut in itertools.combinations(verts, k):
            if not _connected(set(verts) - set(cut), edges):
                return k
    raise AssertionError("a graph that is not complete has a vertex cut")


def simplicial_betti_sympy(faces_by_dim):
    """Reduced Betti numbers from scratch: boundary matrices over the
    rationals, ranks via sympy.  `faces_by_dim[k]` lists the k-faces as
    sorted tuples; the empty face is implicit."""
    maxdim = len(faces_by_dim) - 1
    ranks = {}
    for k in range(0, maxdim + 1):
        rows = faces_by_dim[k - 1] if k >= 1 else [()]
        cols = faces_by_dim[k]
        row_index = {f: i for i, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, face in enumerate(cols):
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1 :]
                mat[row_index[sub]][j] = (-1) ** drop
        ranks[k] = integer_rank(mat) if rows and cols else 0
    betti = {}
    for k in range(0, maxdim + 1):
        betti[k] = len(faces_by_dim[k]) - ranks[k] - ranks.get(k + 1, 0)
    betti[-1] = 1 - ranks.get(0, 0)
    return betti


@functools.lru_cache(maxsize=None)
def _link_betti(link):
    """simplicial_betti_sympy of a face set of frozensets, kept across
    calls: the sweeps of many small complexes meet the same links again."""
    top = max(len(f) for f in link) - 1
    return simplicial_betti_sympy(
        [
            sorted(tuple(sorted(f)) for f in link if len(f) == j + 1)
            for j in range(top + 1)
        ]
    )


def toric_resonance_sweep(k, i, d):
    """Degree-i depth-d toric resonance by the exhaustive sweep over all 2^n
    vertex subsets W, each tested with the Papadima-Suciu link formula.

    Returns (maximal nonempty passing subsets, sorted; does ∅ pass).
    """
    n = k.n
    verts = range(1, n + 1)
    small = [f for f in k.faces if len(f) <= i]
    passing = []
    origin = False
    for mask in range(1 << n):
        w = frozenset(v for v in verts if mask >> (v - 1) & 1)
        total = 0
        for sigma in small:
            if sigma & w:
                continue
            link = frozenset(
                f - sigma for f in k.faces if sigma <= f and (f - sigma) <= w
            )
            total += _link_betti(link).get(i - 1 - len(sigma), 0)
            if total >= d:
                break
        if total >= d:
            if w:
                passing.append(w)
            else:
                origin = True
    maximal = [w for w in passing if not any(w < v for v in passing)]
    return tuple(sorted(tuple(sorted(w)) for w in maximal)), origin


def toric_resonance_levelwise(k, i, d):
    """Degree-i depth-d toric resonance by the level-wise search the package
    used before joint generation, as Apriori searches frequent item sets.

    A vertex set one larger than a passing set is tested only once every
    subset one vertex smaller has passed; a passing set is maximal when no
    passing set one vertex larger contains it.  Each test sums the reduced
    Betti numbers of link_faces(lk_K(sigma), W), memoized on
    (sigma, W & span).  Returns (maximal nonempty passing subsets, sorted;
    does ∅ pass), the shape of toric_resonance_sweep.
    """
    n = k.n
    faces = k.face_masks()
    links = []
    for sigma in faces:
        size = sigma.bit_count()
        if size > i:
            continue
        link = tuple(f ^ sigma for f in faces if f & sigma == sigma)
        span = 0
        for tau in link:
            span |= tau
        links.append((sigma, link, span, i - 1 - size))
    memo = {}

    def passes(w):
        total = 0
        for sigma, link, span, degree in links:
            if sigma & w:
                continue
            key = (sigma, w & span)
            if key not in memo:
                memo[key] = reduced_betti_faces(link_faces(link, w), degree)
            total += memo[key]
            if total >= d:
                return True
        return False

    def subset(mask):
        return tuple(v + 1 for v in range(n) if mask >> v & 1)

    def below(mask):
        return [mask ^ 1 << v for v in range(n) if mask >> v & 1]

    full = (1 << n) - 1
    if not passes(0):
        return (), False
    if passes(full):
        return (subset(full),), True
    maximal = []
    level = {0}
    while level:
        grown = set()
        for w in level:
            for v in range(w.bit_length(), n):
                c = w | 1 << v
                if c != full and all(b in level for b in below(c)) and passes(c):
                    grown.add(c)
        covered = {b for c in grown for b in below(c)}
        maximal.extend(w for w in level if w not in covered)
        level = grown
    return tuple(sorted(subset(w) for w in maximal if w)), True


def tc1_sympy(n, terms):
    """Classical tangent-cone form of f = sum c * t^a (n >= 1 variables), by
    sympy: clear negative exponents, expand f(z + 1), keep the part of lowest
    total degree and scale it to coprime integers whose first term, in
    exponent order, is positive.  Returns {exponent tuple: Fraction}."""
    zs = sympy.symbols(f"z1:{n + 1}")
    shifts = [min(e[i] for e in terms) for i in range(n)]
    shifted = [sympy.Poly(z + 1, *zs, domain="QQ") for z in zs]
    poly = sympy.Poly(0, *zs, domain="QQ")
    for e, c in terms.items():
        term = sympy.Poly(
            sympy.Rational(c.numerator, c.denominator), *zs, domain="QQ"
        )
        for lin, a, s in zip(shifted, e, shifts):
            term *= lin ** (a - s)
        poly += term
    low = min(sum(m) for m in poly.monoms())
    part = sorted(
        (tuple(m), Fraction(int(c.p), int(c.q)))
        for m, c in zip(poly.monoms(), poly.coeffs())
        if sum(m) == low
    )
    denom = 1
    for _, c in part:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    num = 0
    for _, c in part:
        num = gcd(num, int(c * denom))
    scale = Fraction(denom, num) * (1 if part[0][1] > 0 else -1)
    return {m: c * scale for m, c in part}


def linear_factor_kernels_sympy(tc):
    """The kernels of the rational linear factors of a tangent-cone form,
    one hyperplane per distinct factor, from sympy's factor_list over Q;
    None when some factor is not linear.  A constant has no factors."""
    if tc.is_constant():
        return []
    n = tc.n_vars
    syms = sympy.symbols(f"z1:{n + 1}")
    # scaled to integers, the form factors over Z as over Q (Gauss's lemma)
    scale = lcm(*(c.denominator for c in tc.terms.values()))
    poly = sympy.Poly.from_dict(
        {e: int(c * scale) for e, c in tc.terms.items()}, *syms, domain="ZZ"
    )
    kernels = []
    for fac, _mult in poly.factor_list()[1]:
        if fac.total_degree() != 1:
            return None
        row = [Fraction(str(fac.coeff_monomial(s))) for s in syms]
        kernels.append(RationalSubspace.from_equations(n, [row]))
    return kernels


# ---------------------------------------------------------------------------
# one-variable polynomials by sympy


def normalize_poly1(poly):
    """Shift a nonzero one-variable Laurent polynomial to start at t^0 and
    scale it to coprime integers with positive leading coefficient."""
    from jumploci.laurent import LaurentPolynomial

    shift = min(e[0] for e in poly.terms)
    coeffs = {e[0] - shift: c for e, c in poly.terms.items()}
    denom = 1
    for c in coeffs.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    num = 0
    for c in coeffs.values():
        num = gcd(num, int(c * denom))
    scale = Fraction(denom, num) * (1 if coeffs[max(coeffs)] > 0 else -1)
    return LaurentPolynomial(1, {(e,): c * scale for e, c in coeffs.items()})


def _poly1_expr(poly, t):
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator) * t ** e[0]
            for e, c in poly.terms.items()
        ),
        sympy.Integer(0),
    )


def _poly1_from_expr(expr):
    from jumploci.laurent import LaurentPolynomial

    t = sympy.Symbol("t")
    if expr == 0:
        return LaurentPolynomial.zero(1)
    poly = sympy.Poly(sympy.expand(expr), t)
    coeffs = {
        (int(m[0]),): Fraction(str(c)) for m, c in zip(poly.monoms(), poly.coeffs())
    }
    return normalize_poly1(LaurentPolynomial(1, coeffs))


def cyclotomic_index_sympy(poly):
    """k with poly == Phi_k up to a scalar and a unit, by comparison with
    sympy.cyclotomic_poly; else None.  phi(k) >= sqrt(k / 2), so every k
    with phi(k) equal to the degree is at most 2 * degree^2."""
    norm = normalize_poly1(poly)
    deg = max(e[0] for e in norm.terms)
    if deg == 0:
        return None
    t = sympy.Symbol("t")
    target = _poly1_expr(norm, t)
    for k in range(1, 2 * deg * deg + 1):
        if sympy.totient(k) == deg and sympy.expand(sympy.cyclotomic_poly(k, t) - target) == 0:
            return k
    return None


def factor_one_variable_sympy(poly):
    """The report of laurent.factor_one_variable, by sympy.factor_list on the
    whole polynomial."""
    from jumploci.laurent import LaurentPolynomial

    if poly.is_constant():
        return []
    t = sympy.Symbol("t")
    _, factors = sympy.factor_list(sympy.expand(_poly1_expr(normalize_poly1(poly), t)))
    out = []
    for fac, mult in factors:
        fpoly = sympy.Poly(fac, t)
        lp = LaurentPolynomial(
            1,
            {
                (int(m[0]),): Fraction(str(c))
                for m, c in zip(fpoly.monoms(), fpoly.coeffs())
            },
        )
        k = cyclotomic_index_sympy(lp)
        out.append(
            {
                "factor": lp,
                "multiplicity": int(mult),
                "cyclotomic_index": k,
                "torsion_points": (
                    [] if k is None else [Fraction(j, k) for j in range(k) if gcd(j, k) == 1]
                ),
            }
        )
    out.sort(key=lambda d: sorted(d["factor"].terms.items()))
    return out


def poly1_gcd_sympy(a, b):
    """Normalized gcd of two one-variable polynomials with nonnegative
    exponents; a zero argument returns the other one unchanged."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    t = sympy.Symbol("t")
    return _poly1_from_expr(sympy.gcd(_poly1_expr(a, t), _poly1_expr(b, t)))


def minor_gcd_sympy(mat, k):
    """Normalized gcd of the k x k minors (nonnegative exponents), each
    minor a sympy determinant."""
    from jumploci.laurent import LaurentPolynomial

    if k == 0:
        return LaurentPolynomial.constant(1, 1)
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    if k > nrows or k > ncols:
        return LaurentPolynomial.zero(1)
    t = sympy.Symbol("t")
    acc = sympy.Integer(0)
    for rows in itertools.combinations(range(nrows), k):
        for cols in itertools.combinations(range(ncols), k):
            m = sympy.Matrix([[_poly1_expr(mat[r][c], t) for c in cols] for r in rows])
            acc = sympy.gcd(acc, sympy.expand(m.det()))
    return _poly1_from_expr(acc)


def cv_rank1_chain_sympy(chain, i, d):
    """laurent.cv_rank1_chain from sympy minors and gcds."""
    from jumploci.laurent import LaurentPolynomial

    budget = chain.ranks[i] - d
    result = LaurentPolynomial.constant(1, 1)
    for r in range(budget + 1):
        down = minor_gcd_sympy(chain.boundary(i), r + 1)
        up = minor_gcd_sympy(chain.boundary(i + 1), budget - r + 1)
        result = result * poly1_gcd_sympy(down, up)
    return result if result.is_zero() else normalize_poly1(result)


# ---------------------------------------------------------------------------
# constructions that only the tests use


def coordinate_subspace(n, coords):
    """Q^W: the span of the unit vectors indexed by `coords` (1-based)."""
    coords = sorted(set(coords))
    if coords and (coords[0] < 1 or coords[-1] > n):
        raise ValueError("coordinate out of range")
    return RationalSubspace(n, [[int(k == j) for k in range(1, n + 1)] for j in coords])


def link_in_induced(k, sigma, w):
    """lk_{K_W}(sigma) = {tau ⊆ W : tau ∪ sigma ∈ K}.

    sigma must be a face of K and disjoint from W.  With sigma = ∅ this is
    the induced subcomplex on W.
    """
    sigma = frozenset(sigma)
    w = frozenset(w)
    if not k.has_face(sigma):
        raise ValueError(f"{sorted(sigma)} is not a face of the complex")
    if sigma & w:
        raise ValueError("sigma must be disjoint from W")
    faces = [f - sigma for f in k.faces if sigma <= f and (f - sigma) <= w]
    return SimplicialComplex(faces, n=k.n)


def reduced_betti_all(k):
    """All reduced Betti numbers of a complex, degrees -1 .. dim(K)."""
    return {i: reduced_betti(k, i) for i in range(-1, k.dim() + 1)}


def euler_characteristic_reduced(k):
    """Sum of (-1)^i over all faces including ∅ (equals Σ (-1)^i b̃_i)."""
    return sum((-1) ** (len(f) - 1) for f in k.faces)


def zero_multiplication_algebra(dims):
    """The presentation in which all products of positive-degree elements vanish."""
    dims = tuple(int(c) for c in dims)
    n = dims[1] if len(dims) >= 2 else 0
    tensors = [
        tuple(
            tuple(tuple(Q(0) for _ in range(dims[i + 1])) for _ in range(dims[i]))
            for _ in range(n)
        )
        for i in range(1, len(dims) - 1)
    ]
    return GradedAlgebraPresentation(dims, tensors)


def evaluate_universal(mats, a):
    """Plug a rational point into the symbolic matrices of universal_aomoto."""
    a = qvector(a)
    return [
        tuple(
            tuple(sum((coef * x for coef, x in zip(entry, a)), Q(0)) for entry in row)
            for row in mat
        )
        for mat in mats
    ]


# ---------------------------------------------------------------------------
# the Fraction reduction route


def reduce_vector(v, rows):
    """v minus its components along RREF rows: all zero exactly when v lies
    in their span, and otherwise the same for every vector of v + span."""
    v = list(v)
    for row in rows:
        f = v[next(j for j, x in enumerate(row) if x)]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def contains_vector_by_reduction(u, v):
    return not any(reduce_vector(qvector(v), u.basis))


def contains_subspace_by_reduction(u, w):
    return all(contains_vector_by_reduction(u, b) for b in w.basis)


def intersection_dim_by_reduction(u, w):
    """dim(U n W) = dim W - dim of the residues of W's basis modulo U."""
    residues = [reduce_vector(b, u.basis) for b in w.basis]
    return w.dim - sympy_rank(residues)


def maximal_members(comps):
    """The distinct nonzero subspaces of `comps` not contained in another
    distinct one, every pair tested, in the canonical order of
    SubspaceArrangement."""
    uniq = []
    for c in comps:
        if c.dim > 0 and c not in uniq:
            uniq.append(c)
    kept = [
        c for c in uniq
        if not any(d != c and contains_subspace_by_reduction(d, c) for d in uniq)
    ]
    return tuple(sorted(kept, key=lambda s: (-s.dim, s.basis)))


def quotient_exterior_algebra_by_reduction(n, relations):
    """The degree-2 quotient of the exterior algebra, as the package built
    it by Fraction reduction: the relations are row-reduced by sympy, and
    each wedge e_j e_l is reduced against the relation rows and read on
    the non-pivot pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    pair_index = {p: b for b, p in enumerate(pairs)}
    rel_rows = []
    for rel in relations:
        row = [Q(0)] * len(pairs)
        for (i, j), coeff in rel.items():
            row[pair_index[(i, j)]] += qscalar(coeff)
        rel_rows.append(row)
    red, pivots = rref_sympy(rel_rows)
    kept = [b for b in range(len(pairs)) if b not in set(pivots)]
    tensor = []
    for j in range(n):
        per_gen = []
        for l in range(n):
            vec = [Q(0)] * len(pairs)
            if j != l:
                vec[pair_index[(min(j, l), max(j, l))]] = Q(1 if j < l else -1)
            vec = reduce_vector(vec, red)
            per_gen.append(tuple(vec[b] for b in kept))
        tensor.append(tuple(per_gen))
    return GradedAlgebraPresentation((1, n, len(kept)), (tuple(tensor),))


def commutativity_failure(tensor):
    """The first ordered basis pair (1-based) with e_j e_l + e_l e_j != 0,
    scanning every ordered pair, or None."""
    n = len(tensor)
    for j in range(n):
        for l in range(n):
            if any(x + y for x, y in zip(tensor[j][l], tensor[l][j])):
                return j + 1, l + 1
    return None


def direction_subspace(n, blocks):
    """The subspace a partition of the support certifies: the kernel of
    {(a - b) . z = 0 : a, b in a common block}."""
    eqs = [
        [x - y for x, y in zip(other, block[0])]
        for block in blocks
        for other in block[1:]
    ]
    return RationalSubspace.from_equations(n, eqs)


def exp_tangent_cone_by_partitions(polys):
    """The exponential tangent cone with one subspace per finest admissible
    partition of each polynomial, the maximal ones kept, intersected over
    the polynomials."""
    out = None
    for f in polys:
        if f.is_zero():
            comps = [RationalSubspace.full(f.n_vars)]
        else:
            comps = [
                direction_subspace(f.n_vars, p.blocks)
                for p in admissible_partitions(f, finest=True)
            ]
        arr = SubspaceArrangement(f.n_vars, comps)
        out = arr if out is None else out.intersect(arr)
    return out


def past_the_cone_step_limit():
    """18 terms in 6 variables with coefficients +-1: the pruned cover search
    of the exponential tangent cone would take about 212,000 steps."""
    rng = random.Random(0)
    support = set()
    while len(support) < 18:
        support.add(tuple(rng.randint(-1, 1) for _ in range(6)))
    support = sorted(support)
    rng.shuffle(support)
    return LaurentPolynomial(6, {e: 1 if i % 2 else -1 for i, e in enumerate(support)})
