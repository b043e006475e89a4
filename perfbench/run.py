"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is ``src/repro`` of the
checkout this file sits in.  Human-readable lines come first, one per
metric with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Full results -- counters, flags, the input digest and
host provenance, and for traced runs every span -- are written under
``.perfbench_out/``.  Exits non-zero, printing no result, when the
sources are missing or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOAD_NAMES = ("serve-unique", "serve-repeat", "library-small",
                  "library-batch")

#: Wall-clock budget for one run, below the 180 s a run may take.
DEADLINE_S = 170


class Context:
    """What one run needs to know about itself."""

    def __init__(self, args, workdir, import_s):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.root = ROOT
        self.src_dir = SRC
        self.workdir = workdir
        self.import_s = import_s


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _raise_exit(signum, _frame):
    raise SystemExit(128 + signum)


def _raise_timeout(_signum, _frame):
    raise TimeoutError("run exceeded %d s" % DEADLINE_S)


def _fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no repro sources under %s\n" % SRC)
        return 2
    # This file's own directory must not shadow top-level modules.
    sys.path[:] = [SRC, ROOT] + [path for path in sys.path if path
                                 and os.path.abspath(path)
                                 != os.path.dirname(os.path.abspath(
                                     __file__))]
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    start = time.perf_counter()
    from perfbench import measure  # imports numpy and the repro stack
    import_s = time.perf_counter() - start
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write("perfbench: repro imported from %s, not %s\n"
                         % (repro.__file__, SRC))
        return 2

    signal.signal(signal.SIGTERM, _raise_exit)
    signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(DEADLINE_S)
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        result = measure.run(Context(args, workdir, import_s))
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
        # The next run must not start while these deletions are still
        # being written out.
        os.sync()

    from perfbench import catalog

    spans = result.pop("spans")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    if spans is not None:
        spans.write(stem + ".spans.json")

    print("workload %s  seed %d  seconds %g  trace %d  inputs sha256:%s"
          % (args.workload, args.seed, args.seconds, args.trace,
             result["input_digest"]))
    provenance = result["provenance"]
    print("host %s  python %s  nproc %s  git %s" % (
        provenance["platform"], provenance["python"], provenance["nproc"],
        provenance["git_sha"]))
    shown = dict(result["end_to_end"], **result["diagnostics"])
    shown.update(result["metrics"])
    for name in sorted(shown):
        print("%-28s %14s %s" % (name, _fmt(shown[name]),
                                 catalog.UNITS[name]))
    for flag in result["flags"]:
        print("FLAG: %s" % flag)
    print("results -> %s.json" % stem)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": catalog.UNITS[name]}
                    for name, value in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
