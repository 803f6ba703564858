"""One timed CLI process, started by perfbench/run.py.

    python child.py STAMPS_FILE [SPANS_FILE] -- ARGV...

Does what ``python -m cnlse_ansatz ARGV`` does (import the CLI, call
``main(ARGV)``, exit with its code) and writes two ``perf_counter_ns``
stamps to STAMPS_FILE: when ``import cnlse_ansatz.cli`` returned and when
``main`` returned.  The clock is CLOCK_MONOTONIC, shared with the parent,
which stamps the launch and the exit.  With SPANS_FILE the layer trace is
installed after the stamp that ends set-up and written out after the stamp
that ends the solve.
"""

import json
import sys
import time


def main() -> int:
    sep = sys.argv.index("--")
    files, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    import cnlse_ansatz.cli as cli
    imported_ns = time.perf_counter_ns()
    tracer = None
    if len(files) > 1:
        import layer_trace
        tracer = layer_trace.install()
    start_ns = time.perf_counter_ns()
    code = cli.main(argv)
    done_ns = time.perf_counter_ns()
    with open(files[0], "w", encoding="utf-8") as fh:
        json.dump({"imported_ns": imported_ns, "start_ns": start_ns, "done_ns": done_ns}, fh)
    if tracer is not None:
        tracer.dump(files[1])
    return code


if __name__ == "__main__":
    sys.exit(main())
