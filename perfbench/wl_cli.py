"""cli-fixtures: the command line as a shell user runs it, one process per answer.

Every bundled fixture runs as `python -m jumploci fixtures run NAME`, and a
few subcommands run on generated JSON files in both output formats.  This
is the only workload that pays, per answer, interpreter start, package
import, argparse and JSON emission; nothing is warmed in set-up.
"""

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import oracle
from gen import hub_arrangement

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
PER_KIND = 4
# Each op is a process of its own (see speed.Clock).
PROCESSES = True


def _raag_r1(n, edges):
    """Maximal vertex sets inducing a disconnected subgraph, by brute force."""
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    def disconnected(w):
        seen, todo = {w[0]}, [w[0]]
        while todo:
            v = todo.pop()
            for u in adj[v] & set(w):
                if u not in seen:
                    seen.add(u)
                    todo.append(u)
        return len(seen) < len(w)

    passing = [w for k in range(2, n + 1) for w in itertools.combinations(range(1, n + 1), k) if disconnected(w)]
    return sorted(w for w in passing if not any(set(w) < set(u) for u in passing))


class Workload:
    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.tracer = None
        self.layer_extras = {"cli.import_s": 0.0, "cli.stdout_bytes": 0}
        self.inputs = Path(workdir) / "cli-inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.ops = []
        self.expected = []
        for path in sorted(GOLDEN.glob("*.json")):
            self._add(["fixtures", "run", path.stem], path.read_bytes())
        formats = ["json", "tsv"] * (PER_KIND // 2)
        for j, fmt in enumerate(formats):
            n = 5 + j % 3
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            edges = rng.sample(pairs, len(pairs) // 2)
            path = self._write(f"complex{j}.json", {"n": n, "facets": [list(e) for e in edges] + [[v] for v in range(1, n + 1)]})
            report = {"degree": 1, "depth": 1, "resonance": {
                "n": n, "subsets": [list(w) for w in _raag_r1(n, edges)], "contains_origin": True}}
            self._add(["toric", "res", "--complex", path, "--degree", "1", "--format", fmt], report)
        for j, fmt in enumerate(formats):
            forms = hub_arrangement(rng, 6 + j % 3)
            path = self._write(f"forms{j}.json", [list(f) for f in forms])
            points = sorted(oracle.multiple_points(forms).items(), key=lambda kv: (-len(kv[1]), kv[1]))
            report = {"points": [{"point": [str(x) for x in p], "lines": list(lines), "multiplicity": len(lines)}
                                 for p, lines in points]}
            self._add(["arr", "points", "--forms", path, "--format", fmt], report)
            r = 1 + j % 4
            m = max(len(lines) for _, lines in points)
            answer = "full" if m == 2 else "empty" if r >= len(forms) - m + 2 else "undetermined"
            self._add(["arr", "omega", "--forms", path, "--r", str(r), "--format", fmt], {"r": r, "answer": answer})
        for j, fmt in enumerate(formats):
            g = 2 + j % 3
            table = [[[1] if l == i + g else [-1] if i == l + g else [0] for l in range(2 * g)] for i in range(2 * g)]
            alg = self._write(f"surface{j}.json", {"dims": [1, 2 * g, 1], "mult": [{"deg": 1, "table": table}]})
            a = [rng.randint(-3, 3) for _ in range(2 * g)]
            point = self._write(f"point{j}.json", a)
            degree = j % 2
            betti = ((0, 2 * g - 2) if any(a) else (1, 2 * g))[degree]
            self._add(["aomoto", "betti", "--algebra", alg, "--point", point, "--degree", str(degree), "--format", fmt],
                      {"degree": degree, "betti": betti})

    def _write(self, name, data):
        path = self.inputs / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def _add(self, argv, expected):
        """`expected` is the exact stdout, or a report rendered per --format."""
        if isinstance(expected, dict):
            fmt = argv[argv.index("--format") + 1]
            expected = oracle.tsv(expected) if fmt == "tsv" else json.dumps(expected, indent=2, sort_keys=True) + "\n"
            expected = expected.encode()
        self.expected.append(expected)
        self.ops.append((" ".join(a if "/" not in a else Path(a).name for a in argv), lambda: self._run(argv)))

    def _run(self, argv):
        if self.tracer is None:
            proc = subprocess.run([sys.executable, "-m", "jumploci", *argv],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
            return proc.returncode, proc.stdout
        sidecar = self.inputs / "probe.json"
        proc = subprocess.run([sys.executable, str(HERE / "cli_probe.py"), str(sidecar), *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        with open(sidecar, encoding="utf-8") as fh:
            data = json.load(fh)
        self.tracer.absorb(data, self.tracer.op_id)
        self.layer_extras["cli.import_s"] += data["import_s"]
        self.layer_extras["cli.stdout_bytes"] += data["stdout_bytes"]
        return proc.returncode, proc.stdout

    def check(self, results):
        bad = []
        for idx, ((value, exc), expected) in enumerate(zip(results, self.expected)):
            if exc is not None:
                bad.append((idx, "wrong", f"raised {exc!r}"))
            elif value[0] != 0:
                bad.append((idx, "wrong", f"exit code {value[0]}"))
            elif value[1] != expected:
                bad.append((idx, "wrong", "stdout differs from the expected bytes"))
        return bad
