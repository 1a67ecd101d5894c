"""The value types: frozen, hashable, and unchanged by pickle and deepcopy."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from jumploci.aomoto import aomoto_betti, aomoto_matrices, surface_algebra
from jumploci.arrangements import (
    ProjLineArrangement,
    braid_subarrangements,
    multiple_points,
    r1_arrangement,
)
from jumploci.cvmodel import CVModel, TranslatedTorus
from jumploci.laurent import (
    EquivariantChainComplex1,
    LaurentPolynomial,
    admissible_partitions,
    compare_tangent_cones,
    link_cv1,
)
from jumploci.qlinalg import RationalSubspace, SubspaceArrangement, intersection_dim
from jumploci.simplicial import SimplicialComplex
from jumploci.toric import CoordinateArrangement, Graph, toric_resonance

Q = Fraction
BRAID = ((1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 0, 1))


def _values():
    k = SimplicialComplex([(1, 2), (2, 3), (3, 4), (1, 4), (2, 4, 5)], 5)
    f = LaurentPolynomial(3, {(1, 0, 0): Q(1), (0, 1, -1): Q(2, 3), (1, 1, 0): Q(-5, 3)})
    t = LaurentPolynomial(1, {(1,): Q(1), (0,): Q(-1)})
    line = RationalSubspace(2, [(1, 1)])
    torus = TranslatedTorus(line, (Q(1, 2), Q(0)))
    arr = ProjLineArrangement(BRAID)
    analysed = ProjLineArrangement(BRAID)
    r1_arrangement(analysed)  # keeps its multiple points, algebra and braids
    alg = surface_algebra(2)
    aomoto_betti(alg, (1, 0, 0, 0), 1)  # reads, and leaves as built, its sparse tensors
    return {
        "complex": k,
        "empty complex": SimplicialComplex((), 0),
        "graph": Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
        "toric resonance": toric_resonance(k, 1, 1),
        "empty coordinate arrangement": CoordinateArrangement(3, [], contains_origin=False),
        "polynomial": f,
        "zero polynomial": LaurentPolynomial(2, {}),
        "admissible partition": admissible_partitions(f)[0],
        "link locus": link_cv1(f),
        "chain complex": EquivariantChainComplex1(
            (1, 1, 1), ([[t]], [[LaurentPolynomial(1, {})]])
        ),
        "subspace": line,
        "subspace arrangement": SubspaceArrangement(2, [line, RationalSubspace(2, [(1, -1)])]),
        "translated torus": torus,
        "locus model": CVModel(2, [torus], [(Q(0), Q(0))]),
        "line arrangement": arr,
        "analysed line arrangement": analysed,
        "multiple point": multiple_points(arr)[0],
        "braid component": braid_subarrangements(arr)[0],
        "evaluated algebra": alg,
        "aomoto evaluation": aomoto_matrices(alg, (1, 2, 0, Q(1, 3))),
    }


def test_value_types_are_frozen_and_survive_pickle_and_deepcopy():
    values = _values()
    assert len({type(v) for v in values.values()}) == 16
    for name, value in values.items():
        assert dataclasses.is_dataclass(value), name
        assert type(value).__dataclass_params__.frozen, name
        field = dataclasses.fields(value)[0].name
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value), name
            assert twin == value and hash(twin) == hash(value), name
    # the uncached computation on an unpickled complex gives the same locus
    k = values["complex"]
    twin = pickle.loads(pickle.dumps(k))
    for i, d in ((1, 1), (2, 1), (2, 2)):
        assert toric_resonance.__wrapped__(twin, i, d) == toric_resonance(k, i, d)
    f = values["polynomial"]
    assert compare_tangent_cones(pickle.loads(pickle.dumps(f))) == compare_tangent_cones(f)
    # an evaluated presentation carries its sparse tensors across
    alg = values["evaluated algebra"]
    twin = pickle.loads(pickle.dumps(alg))
    for a in ((1, 0, 0, 0), (0, 0, 0, 0), (1, 2, 3, Q(1, 2))):
        for i in (0, 1):
            assert aomoto_betti(twin, a, i) == aomoto_betti(alg, a, i)
    # an analysed arrangement carries its kept data across
    arr = values["analysed line arrangement"]
    for twin in (pickle.loads(pickle.dumps(arr)), copy.deepcopy(arr)):
        assert twin._points == arr._points and twin._algebra == arr._algebra
        assert twin._algebra.tensors == arr._algebra.tensors
        assert twin._braids == arr._braids is not None
        assert r1_arrangement(twin) == r1_arrangement(arr)


def test_kept_integer_predicates_leave_equality_and_hash_alone():
    fresh = RationalSubspace(3, [(1, Q(1, 2), 0), (0, 0, 2)])
    queried = RationalSubspace(3, [(2, 1, 0), (0, 0, 1)])
    # no equations before the first predicate that reads them
    assert fresh._equations is None and queried._equations is None
    before = (hash(queried), repr(queried))
    unbuilt = [pickle.loads(pickle.dumps(queried)), copy.deepcopy(queried)]
    assert queried.contains_vector((4, 2, Q(1, 3)))
    assert intersection_dim(queried, RationalSubspace.full(3)) == 2
    assert fresh._equations is None and queried._equations is not None
    assert (hash(queried), repr(queried)) == before
    assert queried == fresh and hash(queried) == hash(fresh)
    assert repr(queried) == repr(fresh) and "equations" not in repr(fresh)
    built = [pickle.loads(pickle.dumps(queried)), copy.deepcopy(queried)]
    assert all(twin._equations is None for twin in unbuilt)
    assert all(twin._equations == queried._equations for twin in built)
    # x1 = x0 / 2 on the plane: one equation, kept with the rows
    assert fresh.rows == queried.rows == ((2, 1, 0), (0, 0, 1))
    assert fresh.equations == queried.equations == (((1, 2), (0, -1)),)
    assert fresh.basis == ((1, Q(1, 2), 0), (0, 0, 1))
    for twin in unbuilt + built:
        assert twin == fresh and hash(twin) == hash(fresh) and repr(twin) == repr(fresh)
        assert twin.rows == queried.rows and twin.equations == queried.equations
        assert twin.contains_vector((4, 2, Q(1, 3)))
        assert not twin.contains_vector((1, 0, 0))


def test_negative_sizes_are_refused():
    refused = {
        "vertex count must be >= 0": [
            lambda: SimplicialComplex((), -1),
            lambda: SimplicialComplex([()], -3),
            lambda: Graph(-1),
        ],
        "ambient dimension must be >= 0": [
            lambda: SubspaceArrangement(-1),
            lambda: CVModel(-2),
            lambda: CoordinateArrangement(-1),
            lambda: RationalSubspace(-1),
        ],
    }
    for message, builds in refused.items():
        for build in builds:
            with pytest.raises(ValueError, match=message):
                build()
    # size 0 is allowed everywhere
    assert SimplicialComplex((), 0).dim() == -1
    assert SimplicialComplex((), 2).vertices() == ()
    assert SubspaceArrangement(0).is_trivial()
    assert SubspaceArrangement(2).codim() == 2
    assert CVModel(0).components == ()
    assert CoordinateArrangement(0).codim() == 0
