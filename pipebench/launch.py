"""One program run, as the benchmark spawns it.

    python3 pipebench/launch.py REPORT TRACE seedsmith-arguments...

Does what the ``seedsmith`` console script does (import ``seedsmith.cli``
and call ``main``) and writes REPORT, a JSON file with the monotonic time
at which the import finished, the wall time of ``cli.main`` and its exit
code. With TRACE 1 it first wraps the layers' public functions (see
``spans.py``) and adds the recorded spans to REPORT.
"""

import sys
import time


def main() -> int:
    import seedsmith.cli as cli

    report = {"imported_at": time.monotonic()}
    import json

    report_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        report["pipeline_s"] = time.perf_counter() - start
        report["exit"] = code
        return code
    finally:
        if tracer is not None:
            report.update(tracer.report())
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
