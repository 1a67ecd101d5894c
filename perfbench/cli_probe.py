"""Run one jumploci command line with spans recorded (traced cli-fixtures ops).

    python3 perfbench/cli_probe.py SIDECAR.json ARG...

Behaves like `python -m jumploci ARG...` on stdout and exit code, and
writes the spans, the package import time and the stdout size to SIDECAR.
"""

import io
import json
import sys
from time import perf_counter


def main():
    sidecar, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import jumploci.cli

    import_s = perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    real, captured = sys.stdout, io.StringIO()
    sys.stdout = captured
    tracer.recording = True
    try:
        code = jumploci.cli.main(argv)
    except SystemExit as e:
        code = e.code
    finally:
        tracer.recording = False
        sys.stdout = real
    text = captured.getvalue()
    real.write(text)
    data = tracer.export()
    data.update(import_s=import_s, stdout_bytes=len(text.encode()))
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
