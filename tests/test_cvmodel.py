"""Translated-torus models: straightness, cover invariants, witnesses."""

import random
import time
from fractions import Fraction

import pytest

from jumploci import codec
from jumploci.cvmodel import (
    WITNESS_LIMIT,
    CVModel,
    TranslatedTorus,
    classify_straightness,
    model_tau1,
    omega_member,
    omega_upper_bound,
    plucker2,
    schubert_codim,
    sigma_member,
    strictness_witness,
)
from jumploci.qlinalg import RationalSubspace, SubspaceArrangement

from oracles import meets_rank, random_subspace_basis

Q = Fraction


def _line_example_model():
    """One vertical line translated to first coordinate 1/2, plus the
    identity as an isolated point; trivial degree-one resonance."""
    comp = TranslatedTorus(RationalSubspace.span(2, [(0, 1)]), (Q(1, 2), Q(0)))
    model = CVModel(2, components=(comp,), isolated_points=((Q(0), Q(0)),))
    res = SubspaceArrangement(2, [])
    return model, res


def test_translation_is_reduced_coordinatewise():
    comp = TranslatedTorus(
        RationalSubspace.span(2, [(0, 1)]), (Q(7, 2), Q(-1, 3))
    )
    assert comp.q == (Q(1, 2), Q(2, 3))
    assert comp.passes_through_origin() is False
    on = TranslatedTorus(RationalSubspace.span(2, [(0, 1)]), (Q(2), Q(5, 7)))
    # the shift lies in the direction plus the integer lattice
    assert on.q == (Q(0), Q(5, 7))
    assert on.passes_through_origin() is True


def test_model_canonical_order_and_dedup():
    line1 = TranslatedTorus(RationalSubspace.span(2, [(1, 0)]), (Q(0), Q(0)))
    line2 = TranslatedTorus(RationalSubspace.span(2, [(0, 1)]), (Q(0), Q(0)))
    plane = TranslatedTorus(RationalSubspace.full(2), (Q(0), Q(0)))
    m = CVModel(
        2,
        components=(line2, plane, line1),
        isolated_points=((Q(1, 2), Q(0)), (Q(0), Q(0)), (Q(3, 2), Q(1))),
    )
    assert [c.dim for c in m.components] == [2, 1, 1]
    assert m.isolated_points == ((Q(0), Q(0)), (Q(1, 2), Q(0)))


def test_model_orders_components_of_one_dimension_by_basis():
    # few distinct entries, so that bases often agree in a prefix, and
    # pivots other than 1, so that the basis order is not the row order
    rng = random.Random(61)
    orders = set()
    for _ in range(150):
        n = rng.randint(2, 4)
        dim = rng.randint(1, n - 1)
        comps = []
        for _ in range(rng.randint(2, 6)):
            rows = [[rng.choice((-2, 0, 1, 3)) for _ in range(n)] for _ in range(dim)]
            direction = RationalSubspace.span(n, rows)
            if direction.dim:
                q = [Q(rng.randint(0, 2), rng.choice((2, 3))) for _ in range(n)]
                comps.append(TranslatedTorus(direction, q))
        m = CVModel(n, components=comps)
        assert m.components == tuple(
            sorted(comps, key=lambda c: (-c.dim, c.direction.basis, c.q))
        )
        orders.add(m.components == tuple(
            sorted(comps, key=lambda c: (-c.dim, c.direction.rows, c.q))
        ))
    assert orders == {True, False}


def test_model_tau1_keeps_only_through_origin_directions():
    line_off = TranslatedTorus(
        RationalSubspace.span(2, [(0, 1)]), (Q(1, 2), Q(0))
    )
    line_on = TranslatedTorus(RationalSubspace.span(2, [(1, 0)]), (Q(0), Q(0)))
    m = CVModel(2, components=(line_off, line_on))
    arr = model_tau1(m)
    assert arr.components == (RationalSubspace.span(2, [(1, 0)]),)


def test_example_classification_locally_but_not_globally():
    model, res = _line_example_model()
    out = classify_straightness({1: model}, {1: res})
    assert out == {
        "locally_k_straight": True,
        "k_straight": False,
        "failing_condition": "c",
        "degree": 1,
    }


def test_strict_inclusion_of_cover_invariant_in_the_bound():
    model, res = _line_example_model()
    full = RationalSubspace.full(2)
    # the translated line forces infinitely many intersections with the
    # full plane's torus, even though the resonance bound sees nothing
    assert omega_member(model, full) is False
    assert omega_upper_bound(res, full) is True
    assert sigma_member(res, full) is False


def test_mismatch_of_cones_fails_condition_b():
    model = CVModel(2, components=(), isolated_points=((Q(0), Q(0)),))
    res = SubspaceArrangement(2, [RationalSubspace.full(2)])
    out = classify_straightness({1: model}, {1: res})
    assert out["failing_condition"] == "b"
    assert out["degree"] == 1
    assert out["locally_k_straight"] is False
    assert out["k_straight"] is False


def test_full_torus_model_is_straight():
    comp = TranslatedTorus(RationalSubspace.full(2), (Q(0), Q(0)))
    model = CVModel(2, components=(comp,))
    res = SubspaceArrangement(2, [RationalSubspace.full(2)])
    out = classify_straightness({1: model}, {1: res})
    assert out["k_straight"] is True
    assert out["locally_k_straight"] is True
    assert out["failing_condition"] is None
    assert out["degree"] is None


def test_omega_member_matches_sigma_for_untranslated_models():
    rng = random.Random(19)
    seen = set()
    for _ in range(30):
        n = rng.randint(2, 4)
        comps = []
        for _ in range(rng.randint(0, 3)):
            d = rng.randint(1, n - 1)
            comps.append(
                TranslatedTorus(
                    RationalSubspace.span(n, random_subspace_basis(rng, n, d)),
                    (Q(0),) * n,
                )
            )
        model = CVModel(n, components=tuple(comps))
        arr = SubspaceArrangement(n, [c.direction for c in comps])
        r = rng.randint(1, n)
        p = RationalSubspace.span(n, random_subspace_basis(rng, n, r))
        got = omega_member(model, p)
        expect = not sigma_member(arr, p)
        assert got == expect
        seen.add(got)
    assert seen == {True, False}


def test_isolated_points_never_block_membership():
    model = CVModel(
        2, components=(), isolated_points=((Q(0), Q(0)), (Q(1, 2), Q(1, 2)))
    )
    assert omega_member(model, RationalSubspace.full(2)) is True
    assert omega_member(model, RationalSubspace.span(2, [(1, 1)])) is True


def test_schubert_codimension():
    l = RationalSubspace.span(4, [(1, 0, 0, 0)])  # codim 3
    assert schubert_codim(l, 1) == 3
    assert schubert_codim(l, 2) == 2
    assert schubert_codim(l, 4) == 0
    try:
        schubert_codim(RationalSubspace.full(3), 1)
        assert False, "the full subspace has no proper incidence variety"
    except ValueError:
        pass
    try:
        schubert_codim(l, 0)
        assert False, "rank below one must raise"
    except ValueError:
        pass


def test_plucker_coordinates_of_the_reference_plane():
    l = RationalSubspace.from_equations(4, [(1, 1, 1, 0), (0, 0, 0, 1)])
    assert plucker2(l) == (Q(0), Q(0), Q(1), Q(0), Q(1), Q(1))


def test_plucker_incidence_form_matches_rank_oracle():
    # for the fixed reference plane, the signed three-term form in the
    # plane's coordinates vanishes exactly on the planes that meet it
    l = RationalSubspace.from_equations(4, [(1, 1, 1, 0), (0, 0, 0, 1)])
    rng = random.Random(45)
    agree_zero = agree_nonzero = 0
    for _ in range(25):
        p = RationalSubspace.span(4, random_subspace_basis(rng, 4, 2))
        pl = plucker2(p)
        form = pl[0] - pl[1] + pl[3]
        meets = meets_rank(list(p.basis), list(l.basis), 4)
        assert (form == 0) == meets
        # the coordinates of any 2-plane satisfy the quadratic identity
        assert pl[0] * pl[5] - pl[1] * pl[4] + pl[3] * pl[2] == 0
        if meets:
            agree_zero += 1
        else:
            agree_nonzero += 1
    assert agree_zero > 0 and agree_nonzero > 0


def test_witness_search_finds_the_canonical_plane():
    comp = TranslatedTorus(
        RationalSubspace.span(3, [(0, 0, 1)]), (Q(1, 2), Q(0), Q(0))
    )
    res = SubspaceArrangement(3, [RationalSubspace.span(3, [(1, 0, 0)])])
    w = strictness_witness(comp, res, 3)
    assert w == RationalSubspace.span(3, [(1, 2, 0), (0, 0, 1)])
    # soundness: the found plane avoids every resonance component but
    # still captures the translated line
    assert sigma_member(res, w) is False
    model = CVModel(3, components=(comp,))
    assert omega_member(model, w) is False


def test_witness_search_can_exhaust():
    comp = TranslatedTorus(
        RationalSubspace.span(4, [(0, 0, 0, 1)]), (Q(1, 2), Q(0), Q(0), Q(0))
    )
    res = SubspaceArrangement(
        4, [RationalSubspace.span(4, [(1, 0, 0, 0), (0, 1, 0, 0)])]
    )
    # radius zero only offers a plane that meets the resonance component
    assert strictness_witness(comp, res, 0) is None
    # one more shell escapes it
    found = strictness_witness(comp, res, 1)
    assert found is not None
    assert sigma_member(res, found) is False


def test_witness_search_past_the_limit_is_refused():
    # the resonance component contains the line's direction, so every plane
    # through it meets the component and no translate is a witness
    n = 5
    comp = TranslatedTorus(
        RationalSubspace.span(n, [(1, 0, 0, 0, 0)]), (Q(0), Q(1, 2), Q(0), Q(0), Q(0))
    )
    res = SubspaceArrangement(
        n, [RationalSubspace.span(n, [[int(i == j) for j in range(n)] for i in range(3)])]
    )
    # bound 3 tries the 7^5 = 16,807 translates of its box, within the limit
    assert 7**n <= WITNESS_LIMIT < 9**n
    assert strictness_witness(comp, res, 3) is None
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {WITNESS_LIMIT} translates"):
        strictness_witness(comp, res, 5)
    assert time.perf_counter() - start < 5


def test_witness_validation():
    line = RationalSubspace.span(2, [(0, 1)])
    plane = RationalSubspace.full(2)
    off = TranslatedTorus(line, (Q(1, 2), Q(0)))
    on = TranslatedTorus(line, (Q(0), Q(0)))
    wide = TranslatedTorus(plane, (Q(1, 2), Q(0)))
    empty = SubspaceArrangement(2, [])
    try:
        strictness_witness(on, empty, 2)
        assert False, "component through the identity must raise"
    except ValueError:
        pass
    try:
        strictness_witness(wide, empty, 2)
        assert False, "non-line component must raise"
    except ValueError:
        pass
    try:
        strictness_witness(off, SubspaceArrangement(2, [line]), 2)
        assert False, "codimension-one resonance must raise"
    except ValueError:
        pass
    try:
        strictness_witness(off, empty, -1)
        assert False, "negative bound must raise"
    except ValueError:
        pass


def test_json_round_trips():
    comp = TranslatedTorus(
        RationalSubspace.span(2, [(0, 1)]), (Q(1, 2), Q(0))
    )
    again = codec.read_torus(codec.torus(comp), 2)
    assert again == comp
    model = CVModel(
        2, components=(comp,), isolated_points=((Q(0), Q(0)),)
    )
    assert codec.read_model(codec.model(model)) == model
