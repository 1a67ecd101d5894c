"""arrangement-r1: certified first resonance of line arrangements.

The dense Fraction contraction in `aomoto_matrices` and the C(n,6) braid
scan dominate; `toric` and `laurent` stay idle.  Degree-1 `aomoto_betti`
point queries then test the reported unions: a point with a cohomology
jump must lie in the union, and a point in the union must jump.
"""

import random

from jumploci import aomoto, arrangements

import oracle
from gen import hub_arrangement

BRAID = ((1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 0, 1))
NEAR_PENCIL = ((0, 1, 0), (0, 0, 1), (0, 1, -1), (1, 0, 0))
DELETED_B3 = ((1, 0, 0), (0, 1, 0), (1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1), (0, 1, -1), (0, 1, 1))
# lines x, y, z, x-y, x+y, x-z, x+z, y-z, y+z
B3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1), (0, 1, -1), (0, 1, 1))
# The (3,4)-multinet plane of B3, spanned by u1 - u3 and u2 - u3 with
# u1 = 2e_x + e_{y+z} + e_{y-z}, u2 = 2e_y + e_{x+z} + e_{x-z},
# u3 = 2e_z + e_{x+y} + e_{x-y}.  It lies in the true first resonance.
_U1 = (2, 0, 0, 0, 0, 0, 0, 1, 1)
_U2 = (0, 2, 0, 0, 0, 1, 1, 0, 0)
_U3 = (0, 0, 2, 1, 1, 0, 0, 0, 0)
B3_MULTINET = (
    tuple(a - c for a, c in zip(_U1, _U3)),
    tuple(b - c for b, c in zip(_U2, _U3)),
)
# Component counts of the true first resonance, known independently of the
# code under test and of the oracle: the deleted B3 arrangement has 7 local
# and 5 braid components; B3 has 7 local, 11 braid and the multinet plane.
KNOWN_COUNTS = {"braid": 5, "near-pencil": 1, "deleted-b3": 12, "b3": 19}
HUB_SIZES = (9,)
# Point queries per arrangement, by where they are drawn: on local
# components, on braid planes, on the B3 multinet plane, and at random.
# Most go to the 8 and 9 line algebras; op_p50_ms falls in the middle of
# the B3 and hub9 queries, away from the edge to the cheaper deleted-B3 ones.
QUERIES = {"near-pencil": (2, 0, 0, 2), "braid": (2, 2, 0, 2), "deleted-b3": (8, 6, 0, 12),
           "b3": (8, 6, 8, 22), "hub9": (8, 4, 0, 20)}


SHAPE_SEED = 2011


def _rich_hub_arrangement(rng, n):
    """A hub arrangement whose only points of multiplicity >= 3 are the hubs.

    The lines are drawn once per size from a fixed generator seed, because
    the cost of r1_arrangement follows their coefficients; the run seed
    renumbers the lines and flips the signs of their forms.
    """
    shape = random.Random(SHAPE_SEED + n)
    while True:
        forms = hub_arrangement(shape, n)
        if sum(1 for lines in oracle.multiple_points(forms).values() if len(lines) >= 3) == 4:
            break
    rng.shuffle(forms)
    return [tuple(-x for x in f) if rng.random() < 0.5 else f for f in forms]


class Workload:
    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.rng = random.Random(seed + 1)
        named = [("braid", BRAID), ("near-pencil", NEAR_PENCIL), ("deleted-b3", DELETED_B3), ("b3", B3)]
        named += [(f"hub{n}", _rich_hub_arrangement(rng, n)) for n in HUB_SIZES]
        self.forms = dict(named)
        self.algebras = {}
        self.ops = []
        self.kinds = []
        for name, forms in named:
            arr = arrangements.ProjLineArrangement(forms)
            self._add(("algebra", name), f"os_algebra_deg2 {name}",
                      lambda arr=arr, name=name: self.algebras.setdefault(name, arrangements.os_algebra_deg2(arr)))
            self._add(("r1", name), f"r1_arrangement {name}", lambda arr=arr: arrangements.r1_arrangement(arr))
            for r in (1, 2, 3):
                self._add(("omega", name, r), f"omega_bounds {name} r={r}",
                          lambda arr=arr, r=r: arrangements.omega_bounds(arr, r))
            for source, a in self._points(rng, name, forms):
                self._add(("betti", name, a, source), f"aomoto_betti {name}",
                          lambda name=name, a=a: aomoto.aomoto_betti(self.algebras[name], a, 1))

    def _add(self, kind, label, fn):
        self.kinds.append(kind)
        self.ops.append((label, fn))

    @staticmethod
    def _points(rng, name, forms):
        """(source, point) query pairs: on local components, on braid planes,
        on the B3 multinet plane, and random."""
        n = len(forms)
        local = [lines for lines in oracle.multiple_points(forms).values() if len(lines) >= 3]
        braids = list(oracle.braid_planes(forms).values())
        n_local, n_braid, n_multinet, n_random = QUERIES[name]
        points = []
        while len(points) < n_local:
            lines = rng.choice(local)
            v = [0] * n
            coeffs = [rng.randint(-5, 5) for _ in lines[:-1]]
            for line, c in zip(lines, coeffs):
                v[line - 1] = c
            v[lines[-1] - 1] = -sum(coeffs)
            if any(v):
                points.append(("local", tuple(v)))
        points += [("braid", oracle.combination(rng, rng.choice(braids))) for _ in range(n_braid)]
        points += [("multinet", oracle.combination(rng, B3_MULTINET)) for _ in range(n_multinet)]
        while len(points) < n_local + n_braid + n_multinet + n_random:
            v = tuple(rng.randint(-9, 9) for _ in range(n))
            if any(v):
                points.append(("random", v))
        return points

    def check(self, results):
        bad = []
        ops = {kind[:2]: idx for idx, kind in enumerate(self.kinds) if kind[0] in ("algebra", "r1")}
        for name, forms in self.forms.items():
            bad += self._check_arrangement(name, forms, ops, results)
        return bad

    @staticmethod
    def _expected(name, forms):
        """{label: basis} of the true first resonance components.

        Local components come from the points of multiplicity >= 3 and braid
        planes from the complete quadrilaterals among the lines; on B3 the
        multinet plane is added.  These are all the components on every
        arrangement of this workload.
        """
        n = len(forms)
        comps = {}
        for lines in oracle.multiple_points(forms).values():
            if len(lines) >= 3:
                comps[("local", lines)] = [
                    tuple(1 if k + 1 == lines[0] else -1 if k + 1 == line else 0 for k in range(n))
                    for line in lines[1:]
                ]
        for subset, basis in oracle.braid_planes(forms).items():
            comps[("braid", subset)] = basis
        if name == "b3":
            comps[("multinet",)] = list(B3_MULTINET)
        if name in KNOWN_COUNTS:
            assert len(comps) == KNOWN_COUNTS[name], f"oracle finds {len(comps)} components on {name}"
        return comps

    def _check_arrangement(self, name, forms, ops, results):
        bad = []
        n = len(forms)
        points = oracle.multiple_points(forms)
        a_idx, r_idx = ops[("algebra", name)], ops[("r1", name)]
        alg, exc = results[a_idx]
        if exc is not None or alg.dims != (1, n, sum(len(lines) - 1 for lines in points.values())):
            return [(a_idx, "wrong", f"degree-2 algebra wrong or missing ({exc!r})")]
        expected = self._expected(name, forms)
        res, exc = results[r_idx]
        missing = []
        if exc is not None:
            known = (name == "b3" and isinstance(exc, arrangements.OracleError)
                     and "off the union" in str(exc))
            bad.append((r_idx, "known" if known else "wrong", f"raised {exc!r}"))
            res = None
        else:
            reason, missing = self._check_components(alg, expected, res)
            if reason:
                bad.append((r_idx, "wrong", reason))
            elif missing == [("multinet",)]:
                bad.append((r_idx, "known", "misses the (3,4)-multinet plane of B3"))
            elif missing:
                bad.append((r_idx, "wrong", f"misses the components {missing}"))
        m = max(len(lines) for lines in points.values())
        for idx, kind in enumerate(self.kinds):
            if kind[1] != name or kind[0] not in ("omega", "betti"):
                continue
            value, exc = results[idx]
            if exc is not None:
                bad.append((idx, "wrong", f"raised {exc!r}"))
            elif kind[0] == "omega":
                r = kind[2]
                want = "full" if m == 2 else "empty" if r >= n - m + 2 else "undetermined"
                if value != want:
                    bad.append((idx, "wrong", f"{value!r}, expected {want!r}"))
            else:
                _, _, a, source = kind
                truth = oracle.aomoto_betti(alg.dims, alg.mult, a, 1)
                assert source == "random" or truth >= 1, f"no jump at a {source} point of {name}"
                if value != truth:
                    bad.append((idx, "wrong", "Betti number differs from the rank oracle"))
                elif res is not None:
                    inside = any(oracle.in_span(a, c.basis) for c in res.components)
                    # a jump off the union is the known miss only on the missing multinet plane
                    if value >= 1 and not inside and not (source == "multinet" and missing):
                        bad.append((r_idx, "wrong", f"jump at a {source} point ({', '.join(map(str, a))}), off the reported union"))
                    elif value == 0 and inside:
                        bad.append((r_idx, "wrong", f"no jump at ({', '.join(map(str, a))}), which lies in the reported union"))
        return bad

    def _check_components(self, alg, expected, res):
        """(reason the reported components are wrong or None, labels of the
        expected components that are not reported)."""
        comps = res.components
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                if oracle.meet_dim(comps[i].basis, comps[j].basis):
                    return "two components meet outside 0", []
        for c in comps:
            if oracle.aomoto_betti(alg.dims, alg.mult, oracle.combination(self.rng, c.basis), 1) < 1:
                return "a reported component has a point without a jump", []
        found = set()
        for c in comps:
            same = [label for label, basis in expected.items()
                    if oracle.rank(basis) == len(c.basis) == oracle.meet_dim(basis, c.basis)]
            if not same:
                return f"a reported component of dimension {len(c.basis)} is not a true component", []
            found.add(same[0])
        return None, sorted(set(expected) - found)
