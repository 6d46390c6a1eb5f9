"""Run one privquant CLI command with the benchmark's tracer installed.

Usage: python3 cli_traced.py SPANS_FILE RUN_ID PARENT_ID ID_BASE CLI_ARGS...

Times the import of ``privquant.cli``, records a ``cli.main`` span around
``main`` (whose parent is the benchmark's job span PARENT_ID) and the spans
of the traced library functions below it, writes them and their totals to
SPANS_FILE, and exits with the CLI's exit code.
"""

import json
import sys
import time


def main() -> int:
    spans_file, run_id, parent_id, id_base, *argv = sys.argv[1:]
    start = time.perf_counter()
    import privquant.cli

    import_s = time.perf_counter() - start
    import tracing

    tracer = tracing.Tracer(id_base=int(id_base))
    tracer.run_id = run_id
    tracer.install()
    try:
        code = tracer.call("cli.main", privquant.cli.main, argv)
    finally:
        tracer.uninstall()
    parent = None if parent_id == "None" else int(parent_id)
    spans = [s[:4] + ((parent if s[4] is None else s[4]),) + s[5:] for s in tracer.spans]
    totals = tracing.totals(spans, tracer.counts)
    totals["cli.import_s"] = import_s
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "totals": totals}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
