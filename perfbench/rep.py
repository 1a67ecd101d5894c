"""One repetition of one workload, run in a fresh interpreter by run.py.

Set-up (imports, lazy imports, input generation) runs first and is timed
from the moment the parent spawned this process.  The op list then runs
closed loop, one op at a time, each op timed on its own; answers are
checked only after the timed region (with --check 0 they are only
fingerprinted, for comparison with a checked repetition of the same
inputs).  The result is written as JSON to --out.

Every time is reported twice: as measured (`*_wall`) and scaled to the
reference CPU speed of speed.py by the probes taken around it.  Probe time
is counted in neither.
"""

import argparse
import hashlib
import importlib
import json
import resource
import sys
from fractions import Fraction
from time import monotonic, perf_counter

import speed

MODULES = {
    "toric-sweep": "wl_toric",
    "arrangement-r1": "wl_arrangement",
    "cone-model": "wl_cone",
    "cli-fixtures": "wl_cli",
}


def canonical(x):
    """A JSON-able rendering of an answer that covers all of its content."""
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, dict):
        return sorted([repr(k), canonical(v)] for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return sorted(json.dumps(canonical(v)) for v in x)
    if isinstance(x, (bool, int, str, bytes, Fraction, BaseException)) or x is None:
        return repr(x)
    slots = [s for cls in type(x).__mro__ for s in getattr(cls, "__slots__", ())]
    return [type(x).__name__] + [canonical(getattr(x, s)) for s in slots] if slots else repr(x)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--check", type=int, default=1, help="0: only fingerprint the answers")
    ap.add_argument("--setup-probe", type=float, required=True,
                    help="speed.probe_process() seconds, taken by the parent just before the spawn")
    args = ap.parse_args()

    module = importlib.import_module(MODULES[args.workload])
    workload = module.Workload(args.seed, args.workdir)
    setup_wall = monotonic() - args.spawned_at
    # Set-up is mostly interpreter start and imports, like a fresh process:
    # scale it by process probes just before the spawn and just after set-up.
    setup_s = setup_wall * speed.REF_PROCESS_S * 2 / (args.setup_probe + speed.probe_process())

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
        tracer.recording = True

    clock = speed.Clock(processes=getattr(module, "PROCESSES", False))
    spans = []
    results = []
    clock.start()
    for op_id, (_, fn) in enumerate(workload.ops):
        clock.before_op()
        if tracer:
            tracer.op_id = op_id
        t0 = perf_counter()
        try:
            value, exc = fn(), None
        except Exception as e:  # a raising op is a failed op, judged by check()
            value, exc = None, e
        spans.append((t0, perf_counter()))
        results.append((value, exc))
    clock.stop()
    if tracer:
        tracer.recording = False
    op_wall, op_s = zip(*clock.scaled(spans))
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )

    t0 = perf_counter()
    bad = workload.check(results) if args.check else []
    check_s = perf_counter() - t0

    out = {
        "setup_s": setup_s,
        "setup_wall": setup_wall,
        "run_s": sum(op_s),
        "run_wall": sum(op_wall),
        "op_s": op_s,
        "probe_s": clock.spent(),
        "rss_mb": rss_kb / 1024,
        "check_s": check_s,
        "fingerprint": hashlib.sha256(json.dumps(canonical(results)).encode()).hexdigest(),
        "bad": [
            [idx, kind, workload.ops[idx][0] if idx is not None else "(cross-op check)", reason]
            for idx, kind, reason in bad
        ],
    }
    if tracer:
        out["layers"] = {
            "cli.import_s": 0.0,
            "cli.stdout_bytes": 0,
            **tracer.metrics(),
            **getattr(workload, "layer_extras", {}),
        }
        if args.spans:
            tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
