"""Laurent-polynomial loci: exponential and classical tangent cones,
link polynomials, rank-one chain complexes."""

import copy
import pickle
import random
import time
from fractions import Fraction

import pytest

import sympy

from jumploci import codec
from jumploci.laurent import (
    CONE_STEP_LIMIT,
    CONE_SUPPORT_LIMIT,
    MINOR_LIMIT,
    SUPPORT_LIMIT,
    EquivariantChainComplex1,
    LaurentPolynomial,
    _minor_gcd,
    _vanishes_on,
    _zt_from_poly,
    _zt_gcd,
    _zt_to_poly,
    admissible_partitions,
    compare_tangent_cones,
    cv_rank1_chain,
    cyclotomic_index,
    exp_tangent_cone,
    factor_one_variable,
    hypersurface_tc1,
    link_cv1,
)
from jumploci.qlinalg import RationalSubspace, SubspaceArrangement

from oracles import (
    cv_rank1_chain_sympy,
    cyclotomic_index_sympy,
    direction_subspace,
    exp_tangent_cone_by_partitions,
    factor_one_variable_sympy,
    linear_factor_kernels_sympy,
    normalize_poly1,
    past_the_cone_step_limit,
    poly1_gcd_sympy,
    random_laurent_terms,
    rg_partitions,
    tc1_sympy,
)

Q = Fraction


def P(n, terms):
    return LaurentPolynomial(n, terms)


def test_arithmetic_and_evaluation():
    f = P(2, {(1, 0): Q(1), (0, 1): Q(-1)})
    g = P(2, {(1, 0): Q(1)})
    assert (f + g).terms == {(1, 0): Q(2), (0, 1): Q(-1)}
    assert (f * g).terms == {(2, 0): Q(1), (1, 1): Q(-1)}
    assert (f - f).is_zero()
    assert f.evaluate((Q(3), Q(2))) == 1
    assert f.value_at_one() == 0
    # negative exponents evaluate as true Laurent monomials
    h = P(1, {(-2,): Q(1)})
    assert h.evaluate((Q(1, 2),)) == 4


def test_json_round_trip():
    f = P(2, {(1, -1): Q(2, 3), (0, 4): Q(-5)})
    again = codec.read_polynomial({"n_vars": 2, "terms": codec.terms(f)})
    assert again == f


def _zero_sum_free(f, block):
    """No nonempty proper subset of the block has coefficient sum zero."""
    for mask in range(1, (1 << len(block)) - 1):
        if sum(f.terms[e] for i, e in enumerate(block) if mask >> i & 1) == 0:
            return False
    return True


def _check_against_partition_oracle(f):
    """admissible_partitions (all and finest) and exp_tangent_cone against
    a filter over every set partition of the support."""
    admissible = [
        blocks
        for blocks in rg_partitions(sorted(f.support()))
        if all(sum(f.terms[e] for e in blk) == 0 for blk in blocks)
    ]

    def as_set(partitions):
        return {frozenset(frozenset(blk) for blk in p) for p in partitions}

    got = admissible_partitions(f)
    assert as_set(p.blocks for p in got) == as_set(admissible)
    finest = [p for p in admissible if all(_zero_sum_free(f, b) for b in p)]
    got_finest = admissible_partitions(f, finest=True)
    assert as_set(p.blocks for p in got_finest) == as_set(finest)
    assert got_finest == [p for p in got if p in got_finest]
    expect = SubspaceArrangement(
        f.n_vars, [direction_subspace(f.n_vars, p) for p in admissible]
    )
    assert exp_tangent_cone([f]) == expect


def test_admissible_partitions_against_partition_oracle():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 3)
        _check_against_partition_oracle(P(n, random_laurent_terms(rng, n, 5)))
    # small coefficients give many zero-sum blocks, and fractional ones
    # exercise the scaling to integers
    rng = random.Random(14)
    for size in (7, 8, 9, 9, 10):
        n = rng.randint(2, 4)
        support = set()
        while len(support) < size:
            support.add(tuple(rng.randint(-2, 2) for _ in range(n)))
        support = sorted(support)
        unit = Q(1, rng.choice((1, 3)))
        coeffs = [unit * rng.choice((-2, -1, 1, 2)) for _ in support[:-1]]
        if sum(coeffs) == 0:
            coeffs[0] += unit
        coeffs.append(-sum(coeffs))
        f = P(n, dict(zip(support, coeffs)))
        assert len(f.support()) == size
        _check_against_partition_oracle(f)


def _random_zero_sum_polynomial(rng, n, size, box=2):
    """`size` distinct exponents in {-box..box}^n with nonzero coefficients
    summing to zero; small coefficients give many zero-sum blocks, and a
    unit of 1/2 or 1/3 exercises the scaling to integers."""
    support = set()
    while len(support) < size:
        support.add(tuple(rng.randint(-box, box) for _ in range(n)))
    support = sorted(support)
    unit = Q(1, rng.choice((1, 1, 2, 3)))
    while True:
        coeffs = [unit * rng.choice((-3, -2, -1, 1, 2, 3)) for _ in support[:-1]]
        if sum(coeffs):
            return P(n, dict(zip(support, coeffs + [-sum(coeffs)])))


def test_exp_tangent_cone_against_the_partition_route():
    """The pruned cover search against one subspace per finest admissible
    partition, on about 2,400 seeded inputs with s <= 10 and n <= 4: single
    polynomials, products of two factors and pairs sharing their support."""
    rng = random.Random(18)
    shapes = {"multi": 0, "pair": 0}
    for _ in range(2400):
        n = rng.randint(1, 4)
        if rng.random() < 0.3:
            # a product of two small factors: its cone is the union of theirs
            f = _random_zero_sum_polynomial(rng, n, 2, 1)
            f = f * _random_zero_sum_polynomial(rng, n, rng.randint(2, 3), 1)
            if f.is_zero() or len(f.terms) > 10:
                continue
        else:
            size = rng.randint(2, min(10, 5**n))
            f = _random_zero_sum_polynomial(rng, n, size)
        polys = [f]
        if rng.random() < 0.2:
            # same support, coefficients moved one place: a second equation
            coeffs = list(f.terms.values())
            polys.append(P(n, dict(zip(f.terms, coeffs[1:] + coeffs[:1]))))
            shapes["pair"] += 1
        got = exp_tangent_cone(polys)
        assert got == exp_tangent_cone_by_partitions(polys), polys
        shapes["multi"] += len(got) > 1
    assert shapes["multi"] >= 200 and shapes["pair"] >= 400, shapes


def _binomial_product(vectors):
    n = len(vectors[0])
    f = P(n, {(0,) * n: Q(1)})
    for v in vectors:
        f = f * P(n, {tuple(v): Q(1), (0,) * n: Q(-1)})
    return f


def test_binomial_products_give_their_hyperplanes():
    """The zero set of a product of binomials t^v - 1 is the union of the
    subtori t^v = 1, so its exponential tangent cone is the union of the
    hyperplanes v^perp; the supports reach 16 terms."""
    rng = random.Random(1816)
    cases = []
    for _ in range(40):
        n = rng.randint(2, 4)
        count = rng.randint(1, 4)
        vectors = []
        while len(vectors) < count:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                vectors.append(v)
        cases.append(vectors)
    # s = 15 and s = 16 in three variables: 20,160 finest partitions at 15
    cases.append([(0, 0, 2), (0, -1, -2), (-2, -1, 1), (-2, 0, 1)])
    cases.append([(2, 0, 0), (2, -2, 1), (-1, -2, -1), (-2, 0, 1)])
    sizes = set()
    for vectors in cases:
        n = len(vectors[0])
        f = _binomial_product(vectors)
        start = time.perf_counter()
        got = exp_tangent_cone([f])
        assert time.perf_counter() - start < 2, (vectors, len(f.terms))
        expect = SubspaceArrangement(
            n, [RationalSubspace.from_equations(n, [v]) for v in vectors]
        )
        assert got == expect, vectors
        sizes.add(len(f.terms))
    assert {15, 16} <= sizes


def _vanishes_along(f, z):
    """f(exp(lambda z)) = 0 for every lambda: the coefficients of the
    terms with one value of a . z sum to zero, for every value."""
    sums = {}
    for expo, coeff in f.terms.items():
        key = sum(a * x for a, x in zip(expo, z))
        sums[key] = sums.get(key, 0) + coeff
    return not any(sums.values())


def test_eighteen_terms_are_answered():
    """Block-built supports of 18 terms: each block has zero coefficient sum
    and a value against z = (1, 1, -1, 2) no other block takes, so z lies in
    the cone, and f vanishes along a random point of every component."""
    rng = random.Random(2018)
    z = (1, 1, -1, 2)
    for blocks in ((4, 4, 4, 3, 3), (3, 3, 3, 3, 3, 3), (6, 6, 6)):
        terms = {}
        for size, level in zip(blocks, rng.sample(range(-4, 5), len(blocks))):
            coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(size - 1)]
            if not sum(coeffs):
                coeffs[0] += 1
            coeffs.append(-sum(coeffs))
            placed = 0
            while placed < size:
                tail = [rng.randint(-2, 2) for _ in range(3)]
                expo = (level - tail[0] + tail[1] - 2 * tail[2], *tail)
                if expo not in terms:
                    terms[expo] = Q(coeffs[placed])
                    placed += 1
        f = P(4, terms)
        assert len(f.terms) == 18
        start = time.perf_counter()
        arr = exp_tangent_cone([f])
        assert time.perf_counter() - start < 5
        assert arr.contains_vector(z)
        for comp in arr:
            weights = [rng.randint(1, 9) for _ in comp.rows]
            point = [sum(w * x for w, x in zip(weights, col)) for col in zip(*comp.rows)]
            assert _vanishes_along(f, point)


def test_support_above_the_limit_is_refused():
    terms = {(k,): Q(1) for k in range(1, SUPPORT_LIMIT + 1)}
    f = P(1, {(0,): Q(-SUPPORT_LIMIT), **terms})
    assert len(f.support()) == SUPPORT_LIMIT + 1 and f.value_at_one() == 0
    with pytest.raises(ValueError, match="support too large"):
        admissible_partitions(f)
    # the cone runs its own search, with its own limits
    rep = compare_tangent_cones(f)
    assert rep["tau1"].is_trivial() and rep["tau1_inside_tc1"] is True

    size = CONE_SUPPORT_LIMIT + 1
    terms = {(k, k * k % 7): Q(1) for k in range(1, size)}
    f = P(2, {(0, 0): Q(1 - size), **terms})
    assert len(f.support()) == size and f.value_at_one() == 0
    with pytest.raises(ValueError, match="support too large"):
        compare_tangent_cones(f)

    f = past_the_cone_step_limit()
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {CONE_STEP_LIMIT} steps"):
        exp_tangent_cone([f])
    assert time.perf_counter() - start < 5


def test_vanishing_on_a_span_against_sympy():
    """The integer substitution against sympy's expansion of form(sum s_j r_j),
    on forms that are products of linear forms, some vanishing on the span."""
    rng = random.Random(1818)
    seen = set()
    for _ in range(60):
        n = rng.randint(2, 4)
        m = rng.randint(1, n - 1)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        form = P(n, {(0,) * n: Q(rng.choice((1, -2, 3)))})
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.3:
                # a linear form vanishing on the span, if there is one
                eqs = RationalSubspace.from_equations(n, rows).rows
                ann = RationalSubspace(n, rows).annihilator().rows
                lin = ann[0] if ann else eqs[0]
            else:
                lin = [rng.randint(-2, 2) for _ in range(n)]
            unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            form = form * P(n, {unit[i]: Q(c) for i, c in enumerate(lin) if c})
        if form.is_zero():
            continue
        s = sympy.symbols(f"s0:{m}")
        z = [sum(sj * r[i] for sj, r in zip(s, rows)) for i in range(n)]
        expr = sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(zi**e for zi, e in zip(z, expo)))
            for expo, c in form.terms.items()
        )
        expect = sympy.expand(expr) == 0
        assert _vanishes_on(form, rows) is expect, (form, rows)
        seen.add(expect)
    assert seen == {True, False}


def test_chain_link_cones():
    # three symmetric lines versus one plane
    f = P(
        3,
        {
            (1, 0, 0): Q(1),
            (0, 1, 0): Q(1),
            (0, 0, 1): Q(1),
            (1, 1, 0): Q(-1),
            (1, 0, 1): Q(-1),
            (0, 1, 1): Q(-1),
        },
    )
    rep = compare_tangent_cones(f)
    lines = {
        RationalSubspace.span(3, [(1, -1, 0)]),
        RationalSubspace.span(3, [(1, 0, -1)]),
        RationalSubspace.span(3, [(0, 1, -1)]),
    }
    assert set(rep["tau1"].components) == lines
    tc = rep["tc1"]
    assert tc.terms == {(1, 0, 0): Q(1), (0, 1, 0): Q(1), (0, 0, 1): Q(1)}
    assert rep["tau1_inside_tc1"] is True
    assert rep["equal"] is False


def test_binomial_gives_equal_cones():
    f = P(2, {(1, 1): Q(1), (0, 0): Q(-1)})
    rep = compare_tangent_cones(f)
    assert rep["tau1"].components == (RationalSubspace.span(2, [(1, -1)]),)
    assert rep["equal"] is True
    assert rep["tau1_inside_tc1"] is True


def test_nonvanishing_at_identity_means_empty_cones():
    f = P(2, {(1, 0): Q(1), (0, 0): Q(1)})
    rep = compare_tangent_cones(f)
    assert rep["tau1"].is_trivial()
    assert rep["equal"] is True


def _cone_equality_inputs(rng):
    """Seeded hypersurfaces for the equality check: random supports, products
    of up to three binomials with repeated factors, and sums of products of
    two polynomials vanishing at 1, whose forms often do not split over Q."""
    for _ in range(800):
        n = rng.randint(1, 4)
        yield P(n, random_laurent_terms(rng, n, 8))
    for _ in range(800):
        n = rng.randint(1, 4)
        f = P(n, {(0,) * n: Q(rng.choice((1, -1, 2)))})
        binomials = []
        for _ in range(rng.randint(1, 3)):
            if binomials and rng.random() < 0.4:
                b = rng.choice(binomials)
            else:
                b = P(n, random_laurent_terms(rng, n, 2))
                binomials.append(b)
            f = f * b
        yield f
    for _ in range(500):
        n = rng.randint(2, 4)
        f = P(n, {})
        for _ in range(rng.randint(1, 2)):
            g = P(n, random_laurent_terms(rng, n, 3))
            h = P(n, random_laurent_terms(rng, n, 3))
            f = f + g * h * rng.choice((1, -1, 2))
        if not f.is_zero():
            yield f


def test_cone_equality_against_linear_factoring():
    """`equal` against sympy's factoring of the form over Q: where the form
    splits into linear factors, the cones are equal exactly when the
    exponential cone is the union of their kernels; where it does not, TC1
    is not a union of rational subspaces and the cones differ."""
    rng = random.Random(2020)
    seen = {}
    count = 0
    for f in _cone_equality_inputs(rng):
        rep = compare_tangent_cones(f)
        kernels = linear_factor_kernels_sympy(rep["tc1"])
        if kernels is None:
            expect = False
        else:
            expect = SubspaceArrangement(f.n_vars, kernels) == rep["tau1"]
        assert rep["equal"] is expect, f
        assert rep["tau1_inside_tc1"] is True, f
        key = (kernels is None, expect)
        seen[key] = seen.get(key, 0) + 1
        count += 1
    assert count >= 2000
    assert set(seen) == {(False, True), (False, False), (True, False)}
    assert min(seen.values()) >= 100, seen


def test_cone_equality_on_pinned_forms():
    z = P(2, {(1, 0): Q(1), (0, 0): Q(-1)})  # t1 - 1
    w = P(2, {(0, 1): Q(1), (0, 0): Q(-1)})  # t2 - 1
    # (t1 - 1)^2 + (t2 - 1)^2: the form z1^2 + z2^2 has no rational linear
    # factor, TC1 is two conjugate complex lines and tau1 is trivial
    rep = compare_tangent_cones(z * z + w * w)
    assert rep["tc1"].terms == {(0, 2): Q(1), (2, 0): Q(1)}
    assert rep["tau1"].is_trivial()
    assert rep["tau1_inside_tc1"] is True and rep["equal"] is False
    # z1^2 - 2 z2^2 splits only over Q(sqrt 2)
    rep = compare_tangent_cones(z * z - w * w * 2)
    assert rep["tc1"].terms == {(0, 2): Q(2), (2, 0): Q(-1)}
    assert rep["equal"] is False
    # repeated factors: z1^2 z2 and z1 z2 are both cut out by two lines
    for f in (z * z * w, z * w, z * z * z * w * w):
        rep = compare_tangent_cones(f)
        assert rep["tau1"].components == (
            RationalSubspace.span(2, [(0, 1)]),
            RationalSubspace.span(2, [(1, 0)]),
        )
        assert rep["equal"] is True
    # (t1 - 1)(t1 t2 - 1) has the form z1 (z1 + z2) and both lines in tau1;
    # adding (t1 - 1)^3 keeps the form but leaves tau1 the line z1 = 0
    line = P(2, {(1, 1): Q(1), (0, 0): Q(-1)})
    rep = compare_tangent_cones(z * line)
    assert rep["tc1"].terms == {(1, 1): Q(1), (2, 0): Q(1)}
    assert len(rep["tau1"]) == 2 and rep["equal"] is True
    rep = compare_tangent_cones(z * line + z * z * z)
    assert rep["tc1"].terms == {(1, 1): Q(1), (2, 0): Q(1)}
    assert rep["tau1"].components == (RationalSubspace.span(2, [(0, 1)]),)
    assert rep["tau1_inside_tc1"] is True and rep["equal"] is False
    # in Q^1 both cones are the origin, whatever the order of vanishing
    t = P(1, {(1,): Q(1), (0,): Q(-1)})
    for f in (t, t * t * t, t * P(1, {(2,): Q(1), (0,): Q(1)}), t * t + t * t * t):
        rep = compare_tangent_cones(f)
        assert rep["tau1"].is_trivial() and rep["equal"] is True, f
    # f(1) != 0: the form is the constant 1 and both cones are empty
    rep = compare_tangent_cones(z * w + 3)
    assert rep["tc1"].terms == {(0, 0): Q(1)} and rep["equal"] is True


def test_exp_cone_inclusion_on_seeded_samples():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(1, 3)
        f = P(n, random_laurent_terms(rng, n, 6))
        rep = compare_tangent_cones(f)
        assert rep["tau1_inside_tc1"] is True


def test_exp_cone_of_several_polynomials_intersects():
    f = P(2, {(1, 0): Q(1), (0, 0): Q(-1)})  # t1 - 1: tau1 is the z2-axis
    g = P(2, {(0, 1): Q(1), (0, 0): Q(-1)})  # t2 - 1: tau1 is the z1-axis
    both = exp_tangent_cone([f, g])
    assert both.is_trivial()
    alone = exp_tangent_cone([f])
    assert alone.components == (RationalSubspace.span(2, [(0, 1)]),)


def test_trefoil_and_friends():
    trefoil = link_cv1(P(1, {(2,): Q(1), (1,): Q(-1), (0,): Q(1)}))
    assert trefoil.tau1().is_trivial()
    assert trefoil.hypersurface_contains_identity() is False
    model = trefoil.torsion_model()
    assert [pt[0] for pt in model["model"].isolated_points] == [
        Q(0),
        Q(1, 6),
        Q(5, 6),
    ]
    assert model["nontorsion_factors"] == []

    unknot = link_cv1(P(1, {(0,): Q(1)}))
    assert unknot.tau1().is_trivial()
    assert [pt[0] for pt in unknot.torsion_model()["model"].isolated_points] == [Q(0)]

    # a polynomial with a non-cyclotomic factor reports it instead of
    # silently dropping the characters it cannot represent
    fib = link_cv1(P(1, {(2,): Q(1), (1,): Q(-1), (0,): Q(-1)}))
    report = fib.torsion_model()
    assert [pt[0] for pt in report["model"].isolated_points] == [Q(0)]
    assert len(report["nontorsion_factors"]) == 1

    # the zero polynomial fills the whole torus
    full = link_cv1(P(2, {}))
    assert full.tau1().components == (RationalSubspace.full(2),)


def test_rank_one_chain_w_polynomials():
    t_minus_1 = P(1, {(1,): Q(1), (0,): Q(-1)})
    f = P(1, {(2,): Q(1), (0,): Q(-1)})
    zero = P(1, {})
    chain = EquivariantChainComplex1(
        (1, 1, 1, 1), ([[t_minus_1]], [[zero]], [[f]])
    )
    assert cv_rank1_chain(chain, 0, 1) == t_minus_1
    assert cv_rank1_chain(chain, 1, 1) == t_minus_1
    assert cv_rank1_chain(chain, 2, 1) == f
    assert cv_rank1_chain(chain, 3, 1) == f


def test_chain_validation():
    t = P(1, {(1,): Q(1)})
    try:
        EquivariantChainComplex1((1, 2), ([[t]],))
        assert False, "boundary shape mismatch must raise"
    except ValueError:
        pass


def test_composition_is_checked_up_to_units_on_rows_and_columns():
    def poly(*terms):
        return P(1, {(e,): Q(c) for e, c in terms})

    # A0 B0 = 0 over Z[t]: A0 = [[1, -t], [t^2, -t^3]], B0 = [[t, t^2], [1, t]]
    rows = [poly((-2, Q(2, 3))), poly((1, Q(-1, 5)))]  # units c * t^s
    cols = [poly((-3, Q(3, 7))), poly((-1, -4))]
    a0 = [[poly((0, 1)), poly((1, -1))], [poly((2, 1)), poly((3, -1))]]
    b0 = [[poly((1, 1)), poly((2, 1))], [poly((0, 1)), poly((1, 1))]]
    a = [[x * u for x in row] for row, u in zip(a0, rows)]
    b = [[x * v for x, v in zip(row, cols)] for row in b0]
    chain = EquivariantChainComplex1((2, 2, 2), (a, b))
    assert chain.boundaries == (tuple(map(tuple, a)), tuple(map(tuple, b)))
    # one entry of the right factor moved by t: the product is no longer zero
    b[1][1] = b[1][1] * poly((1, 1))
    with pytest.raises(ValueError, match="boundaries 1 and 2 do not compose to zero"):
        EquivariantChainComplex1((2, 2, 2), (a, b))
    # empty inner and outer dimensions compose to zero
    EquivariantChainComplex1((1, 0, 1), ([[]], []))
    EquivariantChainComplex1((0, 2, 0), ([], [[], []]))


def test_minor_gcd_units_and_zero():
    assert _minor_gcd([], 0, [0]) == [1]
    assert _minor_gcd([[[0, 2, 2]]], 0, [0]) == [1]
    assert _minor_gcd([[[0, 2, 2]]], 2, [0]) == []
    assert _minor_gcd([], 1, [0]) == []
    # 2t + 2t^2: the factor t and the content go, t + 1 stays
    assert _minor_gcd([[[0, 2, 2]]], 1, [0]) == [1, 1]
    assert _minor_gcd([[[-1, 1], [1, 1]]], 1, [0]) == [1]
    # diag(t - 1, t^2 - 1): (t - 1)^2 (t + 1)
    assert _minor_gcd([[[-1, 1], []], [[], [-1, 0, 1]]], 2, [0]) == [1, -1, -1, 1]


def test_general_paths_answer_the_constant_cases():
    for n in range(4):
        assert link_cv1(P(n, {})).tau1() == SubspaceArrangement(n, [RationalSubspace.full(n)])
        for c in (Q(1), Q(-2, 3)):
            assert link_cv1(P(n, {(0,) * n: c})).tau1() == SubspaceArrangement(n, ())
    for f in (P(1, {(0,): Q(5)}), P(1, {(3,): Q(-2, 3)}), P(1, {(-4,): Q(1)})):
        assert factor_one_variable(f) == []
        assert link_cv1(f).root_factors() == []
    for n in range(4):
        assert linear_factor_kernels_sympy(P(n, {(0,) * n: Q(1)})) == []
    # f(1) != 0: both cones are empty and equal, and the form is the constant 1
    rng = random.Random(65)
    cases = [P(2, {(1, 0): Q(1), (0, 0): Q(2)}), P(1, {(2,): Q(1), (0,): Q(1)})]
    for _ in range(30):
        n = rng.randint(1, 3)
        shift = Q(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        cases.append(P(n, random_laurent_terms(rng, n, 5)) + shift)
    for f in cases:
        assert f.value_at_one() != 0
        rep = compare_tangent_cones(f)
        assert rep == {
            "tau1": SubspaceArrangement(f.n_vars, ()),
            "tc1": P(f.n_vars, {(0,) * f.n_vars: Q(1)}),
            "tau1_inside_tc1": True,
            "equal": True,
        }, f
    # the form comes out primitive, its first term positive
    f = P(2, {(0, 0): Q(-2), (1, 0): Q(-2, 3), (0, 1): Q(4, 3), (1, 1): Q(4, 3)})
    assert hypersurface_tc1(f).terms == {(0, 1): Q(4), (1, 0): Q(1)}


def test_tc1_against_sympy_expansion():
    t1m1 = P(2, {(1, 0): Q(1), (0, 0): Q(-1)})
    t2m1 = P(2, {(0, 1): Q(1), (0, 0): Q(-1)})
    cases = [
        t1m1 * t1m1 * t1m1 * t1m1 * t1m1 * t2m1 * t2m1 * t2m1,
        P(1, {(0,): Q(1)}),
        P(1, {(-3,): Q(2, 3), (2,): Q(-2, 3)}),
    ]
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 3)
        f = P(n, {(0,) * n: Q(rng.randint(1, 4), rng.randint(1, 3))})
        for _ in range(rng.randint(1, 2)):
            g = P(
                n,
                {
                    tuple(rng.randint(-2, 2) for _ in range(n)): Q(
                        rng.randint(-3, 3), rng.randint(1, 3)
                    )
                    for _ in range(rng.randint(1, 3))
                },
            )
            g = g - g.value_at_one() if rng.random() < 0.7 else g
            if g.is_zero():
                continue
            for _ in range(rng.randint(1, 3)):
                f = f * g
        cases.append(f)
    for f in cases:
        assert hypersurface_tc1(f).terms == tc1_sympy(f.n_vars, f.terms), f
    assert hypersurface_tc1(cases[0]).terms == {(5, 3): Q(1)}


def test_laurent_values_survive_pickle_and_deepcopy():
    f = P(3, {(1, 0, 0): Q(1), (0, 1, -1): Q(2, 3), (1, 1, 0): Q(-5, 3)})
    t = P(1, {(1,): Q(1), (0,): Q(-1)})
    values = [
        f,
        P(2, {}),
        admissible_partitions(f)[0],
        link_cv1(f),
        EquivariantChainComplex1((1, 1, 1), ([[t]], [[P(1, {})]])),
    ]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
    twin = pickle.loads(pickle.dumps(f))
    assert compare_tangent_cones(twin) == compare_tangent_cones(f)


def test_tc1_of_a_product_multiplies_initial_forms():
    f = P(2, {(1, 0): Q(1), (0, 0): Q(-1)})
    g = P(2, {(0, 1): Q(1), (0, 0): Q(-1)})
    prod = f * g
    tc = hypersurface_tc1(prod)
    assert tc.terms == {(1, 1): Q(1)}


def _cyclotomic_poly1(k):
    t = sympy.Symbol("t")
    coeffs = sympy.Poly(sympy.cyclotomic_poly(k, t), t).all_coeffs()[::-1]
    return P(1, {(i,): Q(int(c)) for i, c in enumerate(coeffs)})


def _random_poly1(rng, top=3, lo=0):
    """A nonzero one-variable polynomial with small, sometimes fractional,
    coefficients and exponents in lo..top."""
    while True:
        f = P(
            1,
            {
                (rng.randint(lo, top),): Q(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                for _ in range(rng.randint(1, 3))
            },
        )
        if not f.is_zero():
            return f


def _factor_report(factors):
    return [
        (codec.terms(f["factor"]), f["multiplicity"], f["cyclotomic_index"], f["torsion_points"])
        for f in factors
    ]


def test_factor_one_variable_against_sympy_oracle():
    rng = random.Random(61)
    phis = {k: _cyclotomic_poly1(k) for k in range(1, 25)}
    for trial in range(160):
        f = P(1, {(rng.randint(-3, 3),): Q(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice((1, -1))})
        for _ in range(rng.randint(0, 3)):
            f = f * phis[rng.randint(1, 24)]
        if trial % 2:
            for _ in range(rng.randint(1, 2)):
                f = f * _random_poly1(rng)
        if trial % 40 == 0:
            f = f * phis[17] * phis[24]
        got = factor_one_variable(f)
        assert _factor_report(got) == _factor_report(factor_one_variable_sympy(f)), f
        for fac in got:
            assert cyclotomic_index(fac["factor"]) == cyclotomic_index_sympy(fac["factor"])
    # t^n - 1 and t^n + 1, whose quotient after the small Phi_k is a
    # product of large cyclotomic polynomials
    for n in (6, 17, 30, 60):
        for f in (P(1, {(n,): Q(1), (0,): Q(-1)}), P(1, {(n + 1,): Q(2), (1,): Q(2)})):
            assert _factor_report(factor_one_variable(f)) == _factor_report(
                factor_one_variable_sympy(f)
            ), f
    start = time.perf_counter()
    assert len(factor_one_variable(P(1, {(1000,): Q(1), (0,): Q(-1)}))) == 16
    assert time.perf_counter() - start < 10
    for k, phi in phis.items():
        shifted = phi * P(1, {(rng.randint(-4, 4),): Q(-2, 3)})
        assert cyclotomic_index(shifted) == cyclotomic_index_sympy(shifted)
        assert cyclotomic_index(shifted) == k


def test_cyclotomic_factors_of_every_degree_are_named():
    # Phi_17 has degree 16: all of its 16 roots are torsion characters
    report = link_cv1(_cyclotomic_poly1(17)).torsion_model()
    assert report["nontorsion_factors"] == []
    assert report["model"].isolated_points == tuple(
        (Q(j, 17),) for j in range(17)
    )
    # degrees 16, 16 and 24, all above the exact divisions before sympy
    f = _cyclotomic_poly1(48) * _cyclotomic_poly1(60) * _cyclotomic_poly1(84)
    factors = factor_one_variable(f)
    assert sorted(fac["cyclotomic_index"] for fac in factors) == [48, 60, 84]
    for fac in factors:
        assert fac["multiplicity"] == 1
        assert len(fac["torsion_points"]) == max(e[0] for e in fac["factor"].terms)
    assert cyclotomic_index(P(1, {(17,): Q(1), (0,): Q(-1)})) is None


def test_poly1_gcd_against_sympy_oracle():
    rng = random.Random(62)
    for _ in range(120):
        p = _random_poly1(rng)
        a, b = _random_poly1(rng) * p, _random_poly1(rng) * p
        got = _zt_to_poly(_zt_gcd(_zt_from_poly(a), _zt_from_poly(b)))
        assert got == poly1_gcd_sympy(a, b), (a, b)


def _random_chain(rng, lo=0):
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    common = _random_poly1(rng, top=2) if rng.random() < 0.5 else P(1, {(0,): Q(1)})
    mat = [
        [
            P(1, {}) if rng.random() < 0.25 else _random_poly1(rng, top=2, lo=lo) * common
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    return EquivariantChainComplex1((rows, cols), (mat,))


def test_rank_one_chain_against_sympy_oracle():
    rng = random.Random(63)
    for _ in range(60):
        chain = _random_chain(rng)
        for i in (0, 1):
            for d in (1, 2):
                expect = cv_rank1_chain_sympy(chain, i, d)
                assert cv_rank1_chain(chain, i, d) == expect, (chain, i, d)


def test_minor_work_past_the_limit_is_refused():
    # every entry (t - 1) * c: each k x k minor has the factor (t - 1)^k, so
    # no gcd of minors becomes constant and every minor would be computed
    rng = random.Random(12)
    t_minus_1 = P(1, {(1,): Q(1), (0,): Q(-1)})
    mat = [[t_minus_1 * rng.randint(1, 9) for _ in range(12)] for _ in range(12)]
    chain = EquivariantChainComplex1((12, 12), (mat,))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {MINOR_LIMIT} steps"):
        cv_rank1_chain(chain, 0, 1)
    assert time.perf_counter() - start < 5
    # the same size answers when the scan of each size stops at once: with
    # constant entries and t - 1 added in one corner, the 12 x 12 minor is
    # the determinant, linear in t, and two 11 x 11 minors have gcd 1
    consts = [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
    mat = [[LaurentPolynomial.constant(1, c) for c in row] for row in consts]
    mat[0][0] = mat[0][0] + t_minus_1
    chain = EquivariantChainComplex1((12, 12), (mat,))
    t = sympy.Symbol("t")
    det = sympy.Matrix(consts).det()
    cofactor = sympy.Matrix([row[1:] for row in consts[1:]]).det()
    expect = sympy.Poly(det + (t - 1) * cofactor, t)
    start = time.perf_counter()
    w = cv_rank1_chain(chain, 0, 1)
    assert time.perf_counter() - start < 1
    assert w == normalize_poly1(P(1, {(i,): Q(int(c)) for (i,), c in expect.terms()}))


@pytest.mark.parametrize("m", [10, 12])
@pytest.mark.parametrize("corner", ["first", "last"])
def test_a_unit_diagonal_answers_wherever_its_one_nonunit_sits(m, corner):
    # diag(t - 1, 1, ..., 1): every minor through the t - 1 entry carries
    # that factor or vanishes, so a scan of the minors that begins there
    # runs past MINOR_LIMIT before it meets a constant one
    t_minus_1 = P(1, {(1,): Q(1), (0,): Q(-1)})
    mat = [[LaurentPolynomial.constant(1, int(i == j)) for j in range(m)] for i in range(m)]
    k = 0 if corner == "first" else m - 1
    mat[k][k] = t_minus_1
    chain = EquivariantChainComplex1((m, m), (mat,))
    start = time.perf_counter()
    assert cv_rank1_chain(chain, 0, 1) == t_minus_1
    assert time.perf_counter() - start < 1


def test_rank_one_chain_accepts_laurent_entries():
    t_inv_minus_1 = P(1, {(-1,): Q(1), (0,): Q(-1)})
    chain = EquivariantChainComplex1((1, 1), ([[t_inv_minus_1]],))
    assert cv_rank1_chain(chain, 0, 1) == P(1, {(0,): Q(-1), (1,): Q(1)})
    # negative exponents, different in each row, give the locus of the
    # matrix whose rows are shifted by units into nonnegative exponents
    rng = random.Random(64)
    for _ in range(30):
        chain = _random_chain(rng, lo=-2)
        (mat,) = chain.boundaries
        shifted = [
            [x * P(1, {(2,): Q(1)}) for x in row] for row in mat
        ]
        twin = EquivariantChainComplex1(chain.ranks, (shifted,))
        for i in (0, 1):
            for d in (1, 2):
                assert cv_rank1_chain(chain, i, d) == cv_rank1_chain_sympy(twin, i, d)
    mat = [
        [P(1, {(-2,): Q(1), (0,): Q(-1)}), P(1, {(-1,): Q(3)})],
        [P(1, {(1,): Q(1, 2)}), P(1, {(3,): Q(1), (1,): Q(-1)})],
    ]
    chain = EquivariantChainComplex1((2, 2), (mat,))
    # det = (t^-2 - 1)(t^3 - t) - 3/2 = -(t^4 - 2 t^2 + 3/2 t + 1) / t
    assert cv_rank1_chain(chain, 0, 1) == P(
        1, {(0,): Q(2), (1,): Q(3), (2,): Q(-4), (4,): Q(2)}
    )
