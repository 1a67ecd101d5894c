"""cone-model: tangent cones, one-variable loci, locus models, Aomoto ranks.

The Bell-number partition scan, sympy factoring, `cvmodel` and the Fraction
`rref` dominate; `simplicial`, `toric` and `arrangements` stay idle.
`aomoto_betti` runs in every degree of its algebras, so a shortcut that
only speeds up degree 1 leaves this workload unchanged.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb, gcd

from jumploci import aomoto, cvmodel, laurent
from jumploci.laurent import EquivariantChainComplex1, LaurentPolynomial
from jumploci.qlinalg import RationalSubspace, SubspaceArrangement

import oracle
from gen import block_polynomial, cyclotomic, cyclotomic_product, factor_multiplicities

# (support size, variables, block sizes) of the compare_tangent_cones inputs
CONES = ((6, 2, (3, 3)), (7, 3, (3, 2, 2)), (8, 4, (3, 3, 2)), (9, 3, (3, 2, 2, 2)), (10, 4, (4, 3, 3)))
# The two largest cones set largest_op_s, and their cost moves by about 20%
# with the coefficients drawn; they are drawn from a fixed generator seed.
FIXED_FROM_SUPPORT = 9
SHAPE_SEED = 2011
PAIRS = ((3, (3, 3), (3, 2, 2)), (3, (2, 2, 2), (4, 3)))
CYCLO = (1, 2, 3, 4, 5, 6, 8, 10, 12)
HALF = Fraction(1, 2)


def _poly1(coeffs, shift=0, scale=1):
    return LaurentPolynomial(1, {(k + shift,): c * scale for k, c in enumerate(coeffs) if c})


def _coeff_list(poly):
    """Coefficients of a one-variable polynomial, lowest degree first, after
    dividing out the lowest power of t."""
    low = min(e[0] for e in poly.terms)
    out = [Fraction(0)] * (max(e[0] for e in poly.terms) - low + 1)
    for e, c in poly.terms.items():
        out[e[0] - low] = c
    return out


def _random_subspaces(rng, n, count):
    """`count` subspaces of Q^n, none containing another, of dim 1..n-2."""
    while True:
        rows = [[tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n - 2))]
                for _ in range(count)]
        if any(oracle.rank(r) != len(r) for r in rows):
            continue
        if any(oracle.rank(a + b) == max(len(a), len(b)) for a in rows for b in rows if a is not b):
            continue
        return rows


def _off_axis(rng, n, k, dim=1):
    """`dim` independent integer vectors of Q^n with k-th coordinate 0."""
    while True:
        rows = [tuple(0 if j == k else rng.randint(-2, 2) for j in range(n)) for _ in range(dim)]
        if oracle.rank(rows) == dim:
            return rows


class Workload:
    def __init__(self, seed, workdir):
        import sympy  # warm the lazy import the library defers to first use

        sympy.factor_list(sympy.Symbol("t") ** 2 - 1)
        rng = random.Random(seed)
        self.rng = random.Random(seed + 1)
        self.ops = []
        self.kinds = []

        for s, n, blocks in CONES:
            src = random.Random(SHAPE_SEED + s) if s >= FIXED_FROM_SUPPORT else rng
            z = (1,) + tuple(src.randint(-2, 2) for _ in range(n - 1))
            f = block_polynomial(src, n, blocks, z)
            poly = LaurentPolynomial(n, f)
            self._add(("tcone", f, z, n), f"compare_tangent_cones s={s} n={n}",
                      lambda poly=poly: laurent.compare_tangent_cones(poly))
        for n, blocks_f, blocks_g in PAIRS:
            z = (1,) + tuple(rng.randint(-2, 2) for _ in range(n - 1))
            f, g = block_polynomial(rng, n, blocks_f, z), block_polynomial(rng, n, blocks_g, z)
            polys = [LaurentPolynomial(n, f), LaurentPolynomial(n, g)]
            self._add(("expcone", (f, g), z), f"exp_tangent_cone two polys n={n}",
                      lambda polys=polys: laurent.exp_tangent_cone(polys))

        for _ in range(3):
            factors = {k: rng.randint(1, 2) for k in rng.sample(CYCLO, 3)}
            delta = _poly1(cyclotomic_product(factors), shift=rng.randint(-2, 2), scale=rng.choice([1, -2, 3]))
            self._add(("linkcv", factors), "link_cv1 root factors and torsion model",
                      lambda delta=delta: self._link_report(laurent.link_cv1(delta)))
        for _ in range(2):
            shared, p_only, q_only = rng.sample(CYCLO, 3)
            p = cyclotomic_product({shared: 1, p_only: 1})
            q = cyclotomic_product({shared: 1, q_only: rng.randint(1, 2)})
            zero = LaurentPolynomial.zero(1)
            chain = EquivariantChainComplex1((2, 2), [[[_poly1(p), zero], [zero, _poly1(q)]]])
            union, common = {shared, p_only, q_only}, {shared}
            for i, d, expected in ((0, 1, union), (0, 2, common), (1, 1, union)):
                self._add(("chain", expected), f"cv_rank1_chain i={i} d={d}",
                          lambda chain=chain, i=i, d=d: laurent.cv_rank1_chain(chain, i, d))

        for case, variant in enumerate(("straight", "b", "c", "straight")):
            self._add_classify(rng, 3 + case % 2, variant)
        for case in range(12):
            self._add_omega(rng, 3 + case % 2, "abc"[case % 3])
        for case in range(4):
            self._add_witness(rng, 3 + case % 2)

        algebras = [("exterior5", aomoto.exterior_algebra(5).padded(), lambda a, i: 0 if any(a) else comb(5, i))]
        for g in (2, 3):
            algebras.append((f"surface{g}", aomoto.surface_algebra(g).padded(),
                             lambda a, i, g=g: (0, 2 * g - 2, 0)[i] if any(a) else (1, 2 * g, 1)[i]))
        # The exterior-algebra ranks form the bulk of the op list, and the
        # cheaper surface-algebra ranks put op_p50_ms and op_p90_ms inside
        # that class, away from its edges.
        for (name, alg, expect), count in zip(algebras, (24, 14, 14)):
            points = [(0,) * alg.n] + [tuple(rng.randint(-4, 4) or 1 for _ in range(alg.n)) for _ in range(count - 1)]
            for a in points:
                for i in range(alg.top):
                    self._add(("betti", expect(a, i)), f"aomoto_betti {name} degree {i}",
                              lambda alg=alg, a=a, i=i: aomoto.aomoto_betti(alg, a, i))

    def _add(self, kind, label, fn):
        self.kinds.append(kind)
        self.ops.append((label, fn))

    @staticmethod
    def _link_report(link):
        return link.root_factors(), link.torsion_model()

    # -- locus models -----------------------------------------------------

    def _add_classify(self, rng, n, variant):
        """Degrees 1 and 2 each get a resonance arrangement and a model; one
        degree is perturbed so that condition b or c fails there."""
        bad_degree = rng.choice((1, 2))
        models, res = {}, {}
        for degree in (1, 2):
            rows = _random_subspaces(rng, n, 2)
            spaces = [RationalSubspace.span(n, r) for r in rows]
            res[degree] = SubspaceArrangement(n, spaces)
            comps = [cvmodel.TranslatedTorus(s, (0,) * n) for s in spaces]
            if degree == bad_degree and variant == "b":
                comps = comps[1:]
            if degree == bad_degree and variant == "c":
                k = rng.randrange(n)
                q = tuple(HALF if j == k else 0 for j in range(n))
                comps.append(cvmodel.TranslatedTorus(RationalSubspace.span(n, _off_axis(rng, n, k)), q))
            models[degree] = cvmodel.CVModel(n, comps, [(HALF,) * n])
        expected = {
            "straight": {"locally_k_straight": True, "k_straight": True, "failing_condition": None, "degree": None},
            "b": {"locally_k_straight": False, "k_straight": False, "failing_condition": "b", "degree": bad_degree},
            "c": {"locally_k_straight": True, "k_straight": False, "failing_condition": "c", "degree": bad_degree},
        }[variant]
        self._add(("classify", expected), f"classify_straightness n={n} {variant}",
                  lambda: cvmodel.classify_straightness(models, res))

    def _add_omega(self, rng, n, case):
        """A component (L, q) with L and the translation 1/2 e_k off axis k.

        a: the plane contains L and e_k, so q lies in plane + L: not a member.
        b: the plane contains L but lies in x_k = 0, so q misses plane + L + Z^n.
        c: a generic line missing L: the component cannot obstruct.
        """
        k = rng.randrange(n)
        line = _off_axis(rng, n, k)
        q = tuple(HALF if j == k else 0 for j in range(n))
        model = cvmodel.CVModel(n, [cvmodel.TranslatedTorus(RationalSubspace.span(n, line), q)], [q])
        if case == "a":
            rows = line + [tuple(1 if j == k else 0 for j in range(n))]
        elif case == "b":
            while True:
                rows = line + _off_axis(rng, n, k)
                if oracle.rank(rows) == 2:
                    break
        else:
            while True:
                rows = [tuple(rng.randint(-3, 3) for _ in range(n))]
                if any(rows[0]) and not oracle.meet_dim(rows, line):
                    break
        self._add(("omega", case != "a"), f"omega_member n={n} case {case}",
                  lambda: cvmodel.omega_member(model, RationalSubspace.span(n, rows)))

    def _add_witness(self, rng, n):
        k = rng.randrange(n)
        line = _off_axis(rng, n, k)
        q = tuple(HALF if j == k else 0 for j in range(n))
        component = cvmodel.TranslatedTorus(RationalSubspace.span(n, line), q)
        res_rows = [_off_axis(rng, n, rng.randrange(n)) for _ in range(2)]
        res = SubspaceArrangement(n, [RationalSubspace.span(n, r) for r in res_rows])
        self._add(("witness", line[0], q, [c.basis for c in res.components]), f"strictness_witness n={n}",
                  lambda: cvmodel.strictness_witness(component, res, 3))

    # -- checks -------------------------------------------------------------

    def check(self, results):
        bad = []
        for idx, (kind, (value, exc)) in enumerate(zip(self.kinds, results)):
            if exc is not None:
                bad.append((idx, "wrong", f"raised {exc!r}"))
                continue
            reason = getattr(self, f"_check_{kind[0]}")(value, *kind[1:])
            if reason:
                bad.append((idx, "wrong", reason))
        return bad

    def _check_tcone(self, report, f, z, n):
        if report["tau1_inside_tc1"] is not True:
            return "exponential cone reported outside the classical cone"
        tc1 = report["tc1"].terms
        if not oracle.proportional(tc1, oracle.initial_form(f, n)):
            return "classical tangent cone differs from the initial form of f(1+z)"
        reason = self._check_expcone(report["tau1"], (f,), z)
        if reason:
            return reason
        for comp in report["tau1"].components:
            if oracle.evaluate(tc1, oracle.combination(self.rng, comp.basis)):
                return "a point of the exponential cone lies off the classical cone"
        return None

    def _check_expcone(self, arr, polys, z):
        if not any(oracle.in_span(z, c.basis) for c in arr.components):
            return f"direction {z} of the block partition is missing"
        for comp in arr.components:
            point = oracle.combination(self.rng, comp.basis)
            if not all(oracle.vanishes_along(f, point) for f in polys):
                return f"f does not vanish along exp(t {point})"
        return None

    @staticmethod
    def _check_linkcv(report, factors):
        roots, torsion = report
        got = {}
        for fac in roots:
            k = fac["cyclotomic_index"]
            if k is None or _coeff_list(fac["factor"]) != cyclotomic(k):
                return f"factor {fac['factor']} is not the expected cyclotomic polynomial"
            if fac["torsion_points"] != [Fraction(j, k) for j in range(k) if gcd(j, k) == 1]:
                return f"torsion points of Phi_{k} are wrong"
            got[k] = fac["multiplicity"]
        if got != factors:
            return f"factorization {got}, expected {factors}"
        points = {Fraction(0)} | {Fraction(j, k) for k in factors for j in range(k) if gcd(j, k) == 1}
        if torsion["nontorsion_factors"] or torsion["model"].isolated_points != tuple((p,) for p in sorted(points)):
            return "torsion model differs from the roots of unity of the factors"
        return None

    @staticmethod
    def _check_chain(poly, expected):
        found, rest = factor_multiplicities(_coeff_list(poly), CYCLO)
        if set(found) != expected or len(rest) != 1:
            return f"zero set {sorted(found)} with leftover degree {len(rest) - 1}, expected {sorted(expected)}"
        return None

    @staticmethod
    def _check_classify(value, expected):
        return None if value == expected else f"{value}, expected {expected}"

    @staticmethod
    def _check_omega(value, expected):
        return None if value is expected else f"member={value}, expected {expected}"

    @staticmethod
    def _check_betti(value, expected):
        return None if value == expected else f"betti {value}, expected {expected}"

    @staticmethod
    def _check_witness(plane, direction, q, res_bases):
        n = len(q)
        candidates = []
        for radius in range(4):
            for lam in product(range(-radius, radius + 1), repeat=n):
                if not radius or max(abs(x) for x in lam) == radius:
                    candidates.append(tuple(qi + li for qi, li in zip(q, lam)))
        if plane is None:
            # the search box was exhausted: confirm that no candidate works
            for shifted in candidates:
                rows = [direction, shifted]
                if oracle.rank(rows) == 2 and not any(oracle.meet_dim(rows, b) for b in res_bases):
                    return f"witness span({direction}, {shifted}) exists within the bound"
            return None
        rows = list(plane.basis)
        if plane.dim != 2 or not oracle.in_span(direction, rows):
            return "witness plane does not contain the component direction"
        if not any(oracle.in_span(c, rows) for c in candidates):
            return "witness plane contains no translate q + lambda"
        if any(oracle.meet_dim(rows, b) for b in res_bases):
            return "witness plane meets a resonance component"
        return None
