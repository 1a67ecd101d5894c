"""Spans around calls into jumploci's public functions, recorded from outside.

`Tracer.install` wraps each target function and rebinds the wrapper at
every module attribute that holds the original, because several modules
import kernels by name (`simplicial` and `aomoto` bind their own
`rank_int`); patching only the defining module would miss those calls.

Spans live in memory as parallel arrays (name, start, end, parent span,
op id) and are written out once, at the end of a repetition.  Self time
and counts are derived from the spans afterwards.
"""

import functools
import importlib
import json
from array import array
from time import perf_counter

# (module, attribute) of every traced function.
TARGETS = (
    ("qlinalg", "rank_int"),
    ("qlinalg", "rref"),
    ("qlinalg", "nullspace"),
    ("qlinalg", "RationalSubspace.span"),
    ("qlinalg", "intersection_dim"),
    ("simplicial", "reduced_betti_faces"),
    ("simplicial", "link_faces"),
    ("toric", "toric_resonance"),
    ("toric", "toric_omega_member"),
    ("arrangements", "multiple_points"),
    ("arrangements", "braid_subarrangements"),
    ("arrangements", "r1_arrangement"),
    ("arrangements", "os_algebra_deg2"),
    ("aomoto", "aomoto_matrices"),
    ("aomoto", "aomoto_betti"),
    ("aomoto", "quotient_exterior_algebra"),
    ("laurent", "admissible_partitions"),
    ("laurent", "exp_tangent_cone"),
    ("laurent", "hypersurface_tc1"),
    ("laurent", "factor_one_variable"),
    ("laurent", "cv_rank1_chain"),
    ("cvmodel", "classify_straightness"),
    ("cvmodel", "omega_member"),
    ("cvmodel", "strictness_witness"),
    ("fixtures", "run_fixture"),
    ("cli", "main"),
)
NAMES = tuple(f"{m}.{a}" for m, a in TARGETS)
_IX = {name: k for k, name in enumerate(NAMES)}

# Per-layer metrics: (name, unit, better, the end-to-end metric it should move).
# Values are totals over one repetition's op list.
PER_LAYER = (
    ("qlinalg.rank_int.calls", "count", "lower", "run_s: toric-sweep, arrangement-r1"),
    ("qlinalg.rank_int.self_s", "s", "lower", "run_s: toric-sweep, arrangement-r1"),
    ("qlinalg.rref.calls", "count", "lower", "run_s: cone-model"),
    ("qlinalg.rref.self_s", "s", "lower", "run_s: cone-model"),
    ("qlinalg.nullspace.self_s", "s", "lower", "run_s: cone-model"),
    ("qlinalg.RationalSubspace.span.calls", "count", "lower", "run_s: cone-model"),
    ("qlinalg.RationalSubspace.span.self_s", "s", "lower", "run_s: cone-model"),
    ("qlinalg.intersection_dim.self_s", "s", "lower", "run_s: arrangement-r1, cone-model"),
    ("simplicial.reduced_betti_faces.calls", "count", "lower", "run_s: toric-sweep"),
    ("simplicial.reduced_betti_faces.self_s", "s", "lower", "run_s, largest_op_s: toric-sweep"),
    ("simplicial.reduced_betti_faces.kernel_ratio", "ratio", "lower", "run_s, peak_rss_mb: toric-sweep"),
    ("simplicial.link_faces.self_s", "s", "lower", "run_s, largest_op_s: toric-sweep"),
    ("toric.toric_resonance.calls", "count", "lower", "largest_op_s: toric-sweep"),
    ("toric.toric_resonance.self_s", "s", "lower", "largest_op_s: toric-sweep"),
    ("toric.toric_resonance.total_s", "s", "lower", "largest_op_s: toric-sweep"),
    ("toric.toric_omega_member.total_s", "s", "lower", "op_p50_ms: toric-sweep"),
    ("arrangements.multiple_points.self_s", "s", "lower", "run_s: arrangement-r1"),
    ("arrangements.braid_subarrangements.self_s", "s", "lower", "run_s, largest_op_s: arrangement-r1"),
    ("arrangements.r1_arrangement.total_s", "s", "lower", "run_s, largest_op_s: arrangement-r1"),
    ("arrangements.os_algebra_deg2.total_s", "s", "lower", "run_s: arrangement-r1"),
    ("aomoto.aomoto_matrices.calls", "count", "lower", "run_s: arrangement-r1, cone-model"),
    ("aomoto.aomoto_matrices.self_s", "s", "lower", "run_s: arrangement-r1, cone-model"),
    ("aomoto.aomoto_betti.calls", "count", "lower", "run_s: arrangement-r1, cone-model"),
    ("aomoto.aomoto_betti.self_s", "s", "lower", "run_s: arrangement-r1, cone-model"),
    ("aomoto.quotient_exterior_algebra.total_s", "s", "lower", "run_s: arrangement-r1"),
    ("laurent.admissible_partitions.self_s", "s", "lower", "largest_op_s, run_s: cone-model"),
    ("laurent.admissible_partitions.found", "count", "lower", "largest_op_s: cone-model"),
    ("laurent.exp_tangent_cone.total_s", "s", "lower", "largest_op_s, run_s: cone-model"),
    ("laurent.hypersurface_tc1.total_s", "s", "lower", "run_s: cone-model"),
    ("laurent.factor_one_variable.total_s", "s", "lower", "run_s: cone-model"),
    ("laurent.cv_rank1_chain.total_s", "s", "lower", "run_s: cone-model"),
    ("cvmodel.classify_straightness.total_s", "s", "lower", "op_p50_ms: cone-model"),
    ("cvmodel.omega_member.total_s", "s", "lower", "op_p50_ms: cone-model"),
    ("cvmodel.strictness_witness.total_s", "s", "lower", "op_p50_ms: cone-model"),
    ("cvmodel.strictness_witness.planes_tried", "count", "lower", "op_p50_ms: cone-model"),
    ("fixtures.run_fixture.total_s", "s", "lower", "op_p50_ms: cli-fixtures"),
    ("cli.import_s", "s", "lower", "op_p50_ms, setup_s: cli-fixtures"),
    ("cli.main.self_s", "s", "lower", "op_p50_ms: cli-fixtures"),
    ("cli.stdout_bytes", "bytes", "lower", "op_p50_ms: cli-fixtures"),
    ("trace.overhead", "ratio", "lower", "traced run_s / untraced run_s, any workload"),
)


class Tracer:
    """Records one span per call of a target function while `recording`."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.found = 0  # admissible partitions returned
        self.op_id = -1
        self.recording = False
        self._stack = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target, at every jumploci module attribute bound to it."""
        import jumploci

        modules = [jumploci] + [importlib.import_module(f"jumploci.{m}") for m, _ in TARGETS]
        modules = list({id(m): m for m in modules}.values())
        for ix, (mod_name, attr) in enumerate(TARGETS):
            mod = importlib.import_module(f"jumploci.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                func = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self._wrap(ix, func)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(ix, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def _wrap(self, ix, fn):
        tracer = self
        counts_found = ix == _IX["laurent.admissible_partitions"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(ix)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(span)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[span] = perf_counter()
                stack.pop()
            if counts_found:
                tracer.found += len(result)
            return result

        return traced

    # -- moving spans between processes --------------------------------------

    def export(self):
        return {
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "found": self.found,
        }

    def absorb(self, data, op_id):
        """Append spans recorded in another process, tagged with op_id."""
        base = len(self.start)
        self.name.extend(data["name"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.op.extend(op_id for _ in data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.found += data["found"]

    def write(self, path):
        """Write every span: a JSON header line, then the raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": NAMES, "spans": len(self.start), "arrays": ["name:i", "parent:i", "op:i", "start:d", "end:d"]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)

    # -- derived metrics -----------------------------------------------------

    def _ancestor_named(self, span, ix):
        p = self.parent[span]
        while p >= 0:
            if self.name[p] == ix:
                return True
            p = self.parent[p]
        return False

    def metrics(self):
        """Per-layer values derived from the spans (see PER_LAYER)."""
        n = len(self.start)
        name, parent = self.name, self.parent
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        rank_ix, betti_ix = _IX["qlinalg.rank_int"], _IX["simplicial.reduced_betti_faces"]
        kernel_hit = set()
        for k in range(n):
            p = parent[k]
            if p >= 0:
                child[p] += dur[k]
                if name[k] == rank_ix and name[p] == betti_ix:
                    kernel_hit.add(p)
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        spans_of = {ix: [] for ix in range(len(NAMES))}
        for k in range(n):
            ix = name[k]
            calls[ix] += 1
            self_s[ix] += dur[k] - child[k]
            spans_of[ix].append(k)

        def total(label):
            ix = _IX[label]
            return sum(dur[k] for k in spans_of[ix] if not self._ancestor_named(k, ix))

        span_ix, witness_ix = _IX["qlinalg.RationalSubspace.span"], _IX["cvmodel.strictness_witness"]
        wanted = {m[0] for m in PER_LAYER}
        out = {}
        for label, ix in _IX.items():
            out[f"{label}.calls"] = calls[ix]
            out[f"{label}.self_s"] = self_s[ix]
            if f"{label}.total_s" in wanted:
                out[f"{label}.total_s"] = total(label)
        betti_calls = calls[betti_ix]
        out["simplicial.reduced_betti_faces.kernel_ratio"] = len(kernel_hit) / betti_calls if betti_calls else 0.0
        out["laurent.admissible_partitions.found"] = self.found
        out["cvmodel.strictness_witness.planes_tried"] = sum(
            1 for k in spans_of[span_ix] if self._ancestor_named(k, witness_ix)
        )
        return out
