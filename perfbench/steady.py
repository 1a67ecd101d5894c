"""Steadiness report for the benchmark.

    python3 perfbench/steady.py run --seeds 1-10 --out SET.json
    python3 perfbench/steady.py compare FIRST.json SECOND.json

`run` runs perfbench/run.py with --trace 0 once per workload of
BENCHMARK.json and seed (the seconds come from BENCHMARK.json too), stores
every reported value in SET.json and prints, per workload and metric, the
median, the quartiles and the spread: the distance between the quartiles
as a share of the median.  A spread at or above a third of the metric's
bound is flagged.

`compare` checks a second set of runs of the same code against a first:
for every metric and workload the second median may be worse than the
first by at most the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args):
    values = {}
    for w in (w["name"] for w in BENCH["workloads"]):
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout)
                sys.exit(f"{w} seed {seed}: incorrect answers")
            for name, m in result["metrics"].items():
                values.setdefault(w, {}).setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: failed {result['failed']}/{result['attempted']}", flush=True)
        report(w, values[w])
    Path(args.out).write_text(json.dumps(values, indent=1))


def report(workload, metrics):
    print(f"{workload}:")
    for name, vals in metrics.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = BOUNDS[name]["bound"]
        flag = ""
        if spread >= bound / 3:
            flag = f"  SPREAD >= bound/3 ({bound / 3:.3f})"
        print(f"  {name:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.3f}{flag}")


def compare(args):
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    ok = True
    for w in first:
        for name, vals in first[w].items():
            a, b = statistics.median(vals), statistics.median(second[w][name])
            m = BOUNDS[name]
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            good = change <= m["bound"]
            ok &= good
            print(f"{w:15s} {name:14s} {a:12.6g} -> {b:12.6g}  worse by {change:+.3f} "
                  f"(bound {m['bound']})  {'ok' if good else 'REGRESSION'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    if args.cmd == "run":
        run(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
