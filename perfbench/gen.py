"""Seeded input generators shared by the workloads.

Every generator takes a `random.Random` and returns plain ints, tuples and
Fractions; the workloads turn them into library objects.  Sizes are fixed
per call site, so the cost of one repetition moves little from seed to
seed.
"""

import itertools
from fractions import Fraction

from oracle import cross, primitive, rank


def random_complex(rng, n):
    """Facets of a random 2-complex on 1..n with every vertex a face:
    55% of all edges, and n of the 3-cliques of that graph filled in."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = rng.sample(pairs, round(0.55 * len(pairs)))
    have = set(edges)
    cliques = [t for t in itertools.combinations(range(1, n + 1), 3)
               if all(p in have for p in itertools.combinations(t, 2))]
    tris = rng.sample(cliques, min(n, len(cliques)))
    return [tuple(e) for e in edges] + [tuple(t) for t in tris] + [(v,) for v in range(1, n + 1)]


def full_rank_rows(rng, n, r, lo=-3, hi=3):
    """r integer rows in Q^n of rank r."""
    while True:
        rows = [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(r)]
        if rank(rows) == r:
            return rows


def hub_arrangement(rng, n_lines, hubs=4):
    """Small-integer line forms rich in triple points.

    Four hub points in general position give the six lines of a complete
    quadrilateral (four triple points); every further line passes through
    one hub, raising its multiplicity.
    """
    while True:
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(hubs)]
        if all(rank(t) == 3 for t in itertools.combinations(pts, 3)):
            break
    forms = [primitive(cross(p, q)) for p, q in itertools.combinations(pts, 2)]
    seen = set(forms)
    k = 0
    while len(forms) < n_lines:
        hub = pts[k % hubs]
        other = tuple(rng.randint(-4, 4) for _ in range(3))
        f = cross(hub, other)
        if not any(f):
            continue
        f = primitive(f)
        if f in seen:
            continue
        seen.add(f)
        forms.append(f)
        k += 1
    rng.shuffle(forms)
    return forms


def zero_sum_coeffs(rng, size):
    """`size` nonzero ints in [-4, 4] summing to zero."""
    while True:
        cs = [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(size - 1)]
        last = -sum(cs)
        if last:
            return cs + [last]


def block_polynomial(rng, n, blocks, z):
    """Terms {exponent: coeff} built from zero-sum blocks of the given sizes.

    All exponents of one block share their value against the direction z
    (z[0] == 1), a value no other block uses, so the block partition is admissible and z lies in the
    exponential tangent cone; f(1) = 0 puts the identity on the hypersurface.
    """
    terms = {}
    for size, level in zip(blocks, rng.sample(range(-3, 4), len(blocks))):
        coeffs = zero_sum_coeffs(rng, size)
        placed = 0
        while placed < size:
            tail = [rng.randint(-2, 2) for _ in range(n - 1)]
            head = level - sum(zi * ti for zi, ti in zip(z[1:], tail))
            expo = (head,) + tuple(tail)
            if expo in terms:
                continue
            terms[expo] = Fraction(coeffs[placed])
            placed += 1
    return terms


# ---------------------------------------------------------------------------
# one-variable polynomials as coefficient lists, lowest degree first


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and any(a):
        shift = len(a) - len(b)
        f = Fraction(a[-1]) / b[-1]
        q[shift] = f
        for k, y in enumerate(b):
            a[k + shift] -= f * y
        while a and a[-1] == 0:
            a.pop()
    return q, a


_CYCLO = {}


def cyclotomic(k):
    """Coefficients of the k-th cyclotomic polynomial."""
    if k not in _CYCLO:
        num = [Fraction(-1)] + [Fraction(0)] * (k - 1) + [Fraction(1)]
        for d in range(1, k):
            if k % d == 0:
                num, _ = poly_divmod(num, cyclotomic(d))
        _CYCLO[k] = num
    return _CYCLO[k]


def cyclotomic_product(factors):
    """Product of Phi_k ** m over the {k: m} mapping."""
    out = [Fraction(1)]
    for k, m in sorted(factors.items()):
        for _ in range(m):
            out = poly_mul(out, cyclotomic(k))
    return out


def factor_multiplicities(coeffs, candidates):
    """{k: multiplicity} of Phi_k in coeffs, and the leftover quotient."""
    found = {}
    rest = list(coeffs)
    for k in candidates:
        while True:
            q, r = poly_divmod(rest, cyclotomic(k))
            if any(r):
                break
            found[k] = found.get(k, 0) + 1
            rest = q
    return found, rest
