"""Run one slex command line in this fresh process, as the `slex` script would.

    python bench/child.py [--import-only | --trace SPANS.json OP_ID] -- ARGV...

It times `import slex.cli` and `slex.cli.main(ARGV)` from inside the
process, leaves the report on stdout untouched, and ends stderr with one
line `@@bench {"import_s": ..., "run_s": ..., "maxrss_kb": ..., "rc": ...}`.
With --trace it also wraps cli's calls into the layers (see tracing.py)
and writes the spans to SPANS.json when the operation ends.  Exit status
is the command's: 0, 1 or 2; 70 if it raised.
"""

import json
import os
import resource
import sys
import time
import traceback

MARKER = "@@bench "
CRASH = 70


def main(args: list) -> int:
    mode = args[0] if args and args[0] != "--" else None
    argv = args[args.index("--") + 1:] if "--" in args else []
    t0 = time.perf_counter()
    import slex.cli
    import_s = time.perf_counter() - t0
    src = os.environ.get("BENCH_SRC", "")
    if not src or not os.path.abspath(slex.cli.__file__).startswith(src):
        print(f"slex imported from {slex.cli.__file__}, not {src}",
              file=sys.stderr)
        return CRASH
    stats = {"import_s": import_s}
    if mode != "--import-only":
        recorder = None
        run = slex.cli.main
        if mode == "--trace":
            from tracing import Recorder

            recorder = Recorder()
            recorder.install(slex.cli)
            run = recorder.wrap("cli.main", slex.cli.main)
        t1 = time.perf_counter()
        try:
            rc = run(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = CRASH
        stats["run_s"] = time.perf_counter() - t1
        stats["rc"] = rc
        sys.stdout.flush()
        if recorder is not None:
            recorder.dump(args[1], args[2])
    stats["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(MARKER + json.dumps(stats), file=sys.stderr)
    return stats.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
