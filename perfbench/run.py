"""jumploci benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, one at a time, each in a fresh child
interpreter (perfbench/rep.py): at least two and at least 100 ops, and
more while another repetition still fits in S seconds.  Every repetition gets the same
seed-generated inputs and starts with empty module caches.  The first
repetition checks every answer; later ones must give the same answers.  Prints one
line per metric, each failed op, and as its last line a JSON object with
`correct`, `attempted`, `failed` and `metrics`.

Times are scaled to a reference CPU speed by the probes of speed.py, so
that a neighbour loading the host does not move them; the measured wall
times are printed too.

--trace 0 reports the end-to-end metrics over all repetitions.  --trace 1
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones, plus their run_s ratio to the untraced ones
as `trace.overhead`.

A failed op either raised or gave an answer the checks reject.  Failures of
one documented kind, the known incompleteness of `r1_arrangement`, are
counted in `failed` but leave `correct` true; any other failure makes
`correct` false.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import speed
from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toric-sweep", "arrangement-r1", "cone-model", "cli-fixtures")
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("largest_op_s", "s"),
    ("peak_rss_mb", "MB"),
)
MIN_REPS = 2
MIN_OPS = 100
REP_TIMEOUT_S = 150


def spawn(workload, seed, traced, workdir, k):
    """Run repetition k; only the first one checks answers independently."""
    out = workdir / f"rep-{workload}-{k}.json"
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
        "--workdir", str(workdir), "--out", str(out), "--check", str(int(k == 0)),
    ]
    if traced:
        cmd += ["--spans", str(workdir / f"spans-{workload}.bin")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    setup_probe = speed.probe_process()
    t0 = monotonic()
    proc = subprocess.run(cmd + ["--setup-probe", repr(setup_probe), "--spawned-at", repr(t0)], cwd=ROOT, env=env,
                          timeout=REP_TIMEOUT_S, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"repetition {k} of {workload} exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        rep = json.load(fh)
    out.unlink()
    rep["wall_s"] = wall
    rep["traced"] = traced
    return rep


def percentile(values, num, den):
    """The smallest value with at least num/den of the values at or below it.

    Unlike an interpolated quantile, it does not move when every value is
    repeated k times, so runs with different numbers of repetitions agree.
    """
    ordered = sorted(values)
    return ordered[-(-len(ordered) * num // den) - 1]


def end_to_end(reps):
    """Medians over the repetitions; op percentiles over all their ops; the
    largest op by its median time across the repetitions, which all ran the
    same op list."""
    def median(key):
        return statistics.median(r[key] for r in reps)

    ops = [t for r in reps for t in r["op_s"]]
    return {
        "setup_s": median("setup_s"),
        "run_s": median("run_s"),
        "op_p50_ms": 1000 * percentile(ops, 1, 2),
        "op_p90_ms": 1000 * percentile(ops, 9, 10),
        "largest_op_s": max(statistics.median(times) for times in zip(*(r["op_s"] for r in reps))),
        "peak_rss_mb": median("rss_mb"),
    }


def per_layer(traced, plain):
    values = {}
    for name, unit, _, _ in PER_LAYER:
        if name == "trace.overhead":
            value = statistics.median(r["run_s"] for r in traced) / statistics.median(r["run_s"] for r in plain)
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        values[name] = (value, unit)
    return values


def main():
    ap = argparse.ArgumentParser(description="jumploci benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "jumploci" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no jumploci sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    # byte-compile once so that no repetition pays for it in setup_s
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        sys.stderr.write("perfbench: src/ does not compile\n")
        return 2
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    # one CPU for this process and every repetition, so that the speed
    # probes and the ops they scale share it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    reps = []
    start = monotonic()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(spawn(args.workload, args.seed, traced, workdir, len(reps)))
        elapsed = monotonic() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        enough = len(reps) >= MIN_REPS and sum(len(r["op_s"]) for r in reps) >= MIN_OPS
        if enough and elapsed + typical > args.seconds:
            break

    # Later repetitions ran the same inputs: the same answers carry the same
    # verdicts, and any other answer is wrong.
    for r in reps[1:]:
        if r["fingerprint"] == reps[0]["fingerprint"]:
            r["bad"] = reps[0]["bad"]
        else:
            r["bad"] = [[None, "wrong", "(repetition)", "answers differ from the checked repetition"]]

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(len(r["op_s"]) for r in reps)
    failures = {}
    for r in reps:
        for idx, kind, label, reason in r["bad"]:
            failures.setdefault((kind, label, reason), []).append(idx)
    failed = sum(len(v) for v in failures.values())
    correct = all(kind != "wrong" for kind, _, _ in failures)

    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({len(traced)} traced), {attempted} ops, check {sum(r['check_s'] for r in reps):.2f} s")
    if args.trace:
        values = per_layer(traced, plain)
        moves = {name: move for name, _, _, move in PER_LAYER}
        for name, (value, unit) in values.items():
            print(f"  {name:46s} {value:14.6g} {unit:6s} -> {moves[name]}")
    else:
        e2e = end_to_end(plain)
        values = {name: (e2e[name], unit) for name, unit in END_TO_END}
        for name, (value, unit) in values.items():
            print(f"  {name:14s} {value:12.6g} {unit}")
        print(f"  op percentiles over {sum(len(r['op_s']) for r in plain)} ops "
              f"({len(plain)} repetitions of {len(plain[0]['op_s'])})")
        print(f"  as measured: setup {statistics.median(r['setup_wall'] for r in plain):.4g} s, "
              f"run {statistics.median(r['run_wall'] for r in plain):.4g} s; "
              f"probes {statistics.median(r['probe_s'] for r in plain):.3g} s per repetition")
    print(f"  failed {failed} of {attempted} ops (failed_frac {failed / attempted:.4g})")
    for (kind, label, reason), idxs in sorted(failures.items()):
        tag = "known defect (r1_arrangement incomplete)" if kind == "known" else "WRONG"
        print(f"  failed x{len(idxs)} [{tag}] {label}: {reason}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
