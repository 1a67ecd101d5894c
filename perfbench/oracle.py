"""Independent exact checks used to verify the benchmark's answers.

Nothing here imports jumploci: every check recomputes what it needs from
plain ints and Fractions, so a defect in the library's own elimination or
homology code cannot hide in the oracle as well.
"""

from fractions import Fraction
from math import gcd, lcm


def _int_row(row):
    row = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row)) if row else 1
    return [int(x * den) for x in row]


def rank(rows):
    """Exact rank over Q of a matrix of ints or Fractions."""
    mat = [r for r in (_int_row(row) for row in rows) if any(r)]
    rk = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        p = mat[rk]
        for i in range(rk + 1, len(mat)):
            v = mat[i][c]
            if v:
                g = gcd(p[c], v)
                a, b = p[c] // g, v // g
                row = [a * x - b * y for x, y in zip(mat[i], p)]
                h = gcd(*row)
                mat[i] = [x // h for x in row] if h > 1 else row
        rk += 1
        if rk == len(mat):
            break
    return rk


def in_span(vector, basis):
    """Is `vector` in the row space of `basis`?"""
    basis = list(basis)
    return rank(basis + [vector]) == rank(basis)


def meet_dim(rows_u, rows_v):
    """dim(U ∩ V) for subspaces given by spanning rows."""
    rows_u, rows_v = list(rows_u), list(rows_v)
    return rank(rows_u) + rank(rows_v) - rank(rows_u + rows_v)


def combination(rng, basis, lo=-5, hi=5):
    """A nonzero integer combination of the basis rows."""
    n = len(basis[0])
    while True:
        coeffs = [rng.randint(lo, hi) for _ in basis]
        v = [sum((c * Fraction(row[k]) for c, row in zip(coeffs, basis)), Fraction(0)) for k in range(n)]
        if any(v):
            return tuple(v)


# ---------------------------------------------------------------------------
# simplicial homology


class Homology:
    """Reduced Betti numbers of face sets, memoized per instance."""

    def __init__(self):
        self._memo = {}

    def betti(self, faces, i):
        if i < -1:
            return 0
        key = (faces, i)
        if key not in self._memo:
            self._memo[key] = self._compute(faces, i)
        return self._memo[key]

    @staticmethod
    def _boundary(lower, upper):
        index = {f: k for k, f in enumerate(lower)}
        rows = [[0] * len(upper) for _ in lower]
        for j, face in enumerate(upper):
            verts = sorted(face)
            for pos in range(len(verts)):
                rows[index[frozenset(verts[:pos] + verts[pos + 1:])]][j] = (-1) ** pos
        return rows

    def _compute(self, faces, i):
        by_dim = {}
        for f in faces:
            by_dim.setdefault(len(f) - 1, []).append(f)
        cells = by_dim.get(i, [])
        if not cells:
            return 0
        down = rank(self._boundary(by_dim.get(i - 1, []), cells)) if i >= 0 else 0
        up_cells = by_dim.get(i + 1, [])
        up = rank(self._boundary(cells, up_cells)) if up_cells else 0
        return len(cells) - down - up


def toric_passes(hom, faces, w, i, d):
    """Does Q^W lie in the degree-i depth-d resonance of the toric complex?

    Sum over faces sigma of K disjoint from W (|sigma| <= i) of the reduced
    Betti number of lk_{K_W}(sigma) in degree i-1-|sigma|.
    """
    total = 0
    for sigma in faces:
        if len(sigma) > i or sigma & w:
            continue
        link = frozenset(f - sigma for f in faces if sigma <= f and (f - sigma) <= w)
        total += hom.betti(link, i - 1 - len(sigma))
        if total >= d:
            return True
    return False


# ---------------------------------------------------------------------------
# line arrangements


def cross(f, g):
    return (
        f[1] * g[2] - f[2] * g[1],
        f[2] * g[0] - f[0] * g[2],
        f[0] * g[1] - f[1] * g[0],
    )


def primitive(v):
    v = [Fraction(x) for x in v]
    ints = _int_row(v)
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def multiple_points(forms):
    """{normalized point: sorted 1-based lines through it} for all crossings."""
    forms = [tuple(Fraction(x) for x in f) for f in forms]
    out = {}
    for a in range(len(forms)):
        for b in range(a + 1, len(forms)):
            p = primitive(cross(forms[a], forms[b]))
            if p not in out:
                out[p] = tuple(
                    k + 1 for k, f in enumerate(forms) if sum(x * y for x, y in zip(f, p)) == 0
                )
    return out


def braid_planes(forms):
    """{6-subset of 1-based lines: basis of its braid plane} for every complete
    quadrilateral among the lines.

    Six lines form one when, counted among themselves only, they meet in
    four triple points and three double points.  The three double points
    pair the lines up; the braid plane is the set of weights equal on the
    two lines of each pair, summing to 0 over the three pairs, and 0 off
    the six lines.
    """
    from itertools import combinations

    points = list(multiple_points(forms).values())
    n = len(forms)
    out = {}
    for subset in combinations(range(1, n + 1), 6):
        chosen = set(subset)
        induced = [tuple(sorted(chosen.intersection(lines))) for lines in points]
        triples = [p for p in induced if len(p) == 3]
        doubles = [p for p in induced if len(p) == 2]
        if len(triples) != 4 or len(doubles) != 3 or any(len(p) > 3 for p in induced):
            continue
        pair_vectors = []
        for a, b in doubles:
            v = [0] * n
            v[a - 1] = v[b - 1] = 1
            pair_vectors.append(v)
        out[subset] = [
            tuple(x - y for x, y in zip(pair_vectors[0], pair_vectors[1])),
            tuple(x - y for x, y in zip(pair_vectors[1], pair_vectors[2])),
        ]
    return out


# ---------------------------------------------------------------------------
# graded algebras


def aomoto_betti(dims, mult, a, i):
    """Degree-i cohomology of multiplication by a, from the raw structure data.

    `mult[k-1][j][b]` is the degree-(k+1) vector of e_j times basis element b
    of degree k; the degree-0 map is 1 -> a.
    """

    def matrix(deg):
        if deg == 0:
            return [[x] for x in a]
        tensor = mult[deg - 1]
        src, dst = dims[deg], dims[deg + 1]
        return [
            [sum((a[j] * tensor[j][b][r] for j in range(len(a))), Fraction(0)) for b in range(src)]
            for r in range(dst)
        ]

    rank_out = rank(matrix(i)) if dims[i + 1] and dims[i] else 0
    rank_in = rank(matrix(i - 1)) if i >= 1 and dims[i] and dims[i - 1] else 0
    return dims[i] - rank_in - rank_out


# ---------------------------------------------------------------------------
# command-line output


def flatten(obj, prefix=""):
    """The TSV rows `jumploci --format tsv` documents for a JSON report."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from flatten(obj[key], f"{prefix}{key}.")
    elif isinstance(obj, list):
        for idx, item in enumerate(obj):
            yield from flatten(item, f"{prefix}{idx}.")
    else:
        if obj is None:
            text = "null"
        elif isinstance(obj, bool):
            text = "true" if obj else "false"
        else:
            text = str(obj)
        yield (prefix[:-1] if prefix else "value", text)


def tsv(obj):
    return "".join(f"{k}\t{v}\n" for k, v in flatten(obj))


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent tuple: Fraction}


def vanishes_along(terms, z):
    """Does sum c_a exp(t <a, z>) vanish identically in t?

    It does exactly when the coefficients sum to zero within every group of
    exponents sharing the value <a, z>.
    """
    groups = {}
    for expo, c in terms.items():
        key = sum(Fraction(e) * x for e, x in zip(expo, z))
        groups[key] = groups.get(key, 0) + c
    return not any(groups.values())


def evaluate(terms, point):
    total = Fraction(0)
    for expo, c in terms.items():
        v = Fraction(c)
        for x, e in zip(point, expo):
            v *= Fraction(x) ** e
        total += v
    return total


def initial_form(terms, n):
    """Lowest-degree homogeneous part of f(1 + z), after clearing negative
    exponents by a monomial, as {exponent: coeff} up to a scalar."""
    shift = [min(e[i] for e in terms) for i in range(n)]
    expanded = {}
    for expo, c in terms.items():
        partial = {(0,) * n: Fraction(c)}
        for i in range(n):
            k = expo[i] - shift[i]
            nxt = {}
            binom = 1
            for j in range(k + 1):
                for base, v in partial.items():
                    key = base[:i] + (j,) + base[i + 1:]
                    nxt[key] = nxt.get(key, 0) + v * binom
                binom = binom * (k - j) // (j + 1)
            partial = nxt
        for key, v in partial.items():
            expanded[key] = expanded.get(key, 0) + v
    expanded = {k: v for k, v in expanded.items() if v}
    low = min(sum(k) for k in expanded)
    return {k: v for k, v in expanded.items() if sum(k) == low}


def proportional(p, q):
    """Are the two {exponent: coeff} mappings nonzero multiples of each other?"""
    if set(p) != set(q) or not p:
        return False
    ratios = {Fraction(p[k]) / Fraction(q[k]) for k in p}
    return len(ratios) == 1
