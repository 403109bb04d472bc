"""Run one orgsignals CLI command in this fresh interpreter and time it.

Usage: python3 perfbench/child.py RESULT_JSON plain|trace [-- CLI ARGS...]

Writes to RESULT_JSON the time to import `orgsignals.cli`, the time of
`orgsignals.cli.main(args)` from call to return (imports excluded), its
exit code, the peak resident memory of this process (`peak_rss_mb`)
and, with `trace`, the spans and counts of the traced run.  Without CLI
arguments it only imports, which samples the set-up time.
"""

import sys
import time


def main() -> None:
    started = time.perf_counter()
    import orgsignals.cli

    imported = time.perf_counter()
    import json
    import resource

    result_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:] if "--" in sys.argv else []
    result = {
        "import_s": imported - started,
        "orgsignals_file": orgsignals.__file__,
        "kernel_backend": orgsignals.KERNEL_BACKEND,
    }
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if argv:
        start = time.perf_counter()
        result["exit_code"] = orgsignals.cli.main(argv)
        result["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        result["trace"] = tracer.dump()
    # Linux reports ru_maxrss in KiB
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
