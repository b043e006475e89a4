"""Command-line interface: ``python -m repro <command>``.

Small utilities a downstream user reaches for first:

* ``info``       -- library overview and version.
* ``solve``      -- solve a DIMACS CNF file (DMM, WalkSAT, or DPLL).
* ``factor``     -- factor a composite (Shor or memcomputing).
* ``distance``   -- oscillator distance-primitive evaluations.
* ``profile``    -- run one of the above under the performance
  profiler: self/cumulative attribution table plus a Chrome trace
  (open in Perfetto; see ``docs/observability.md``).
* ``serve``      -- long-running asyncio HTTP job service over the
  kernels: priority admission, request coalescing, and the result
  cache as a multi-tenant store (see ``docs/serving.md``).
* ``slo``        -- evaluate a declarative SLO spec against a saved
  metrics snapshot; ``slo check`` exits nonzero on breach, so it slots
  straight into CI (see ``docs/observability.md``).
* ``reproduce``  -- how to regenerate every paper figure/claim.

``solve``, ``factor``, and ``distance`` accept the shared observability
flags -- ``--trace out.jsonl`` streams telemetry spans/events to a JSONL
file, ``--metrics`` prints the metrics summary table after the run (see
``docs/observability.md``) -- the shared ``--workers N`` flag, which
fans the command's hot loop out over the parallel execution engine
(DMM restart portfolio, Shor order-finding attempts, distance pair
scoring; see ``docs/parallelism.md``), the shared resilience flags
``--retries N`` / ``--timeout S`` / ``--checkpoint PATH`` / ``--resume
PATH`` (per-chunk retry budget, wall-clock budget, and JSON
checkpoint/resume; see ``docs/resilience.md``), and the shared caching
flags ``--cache-dir PATH`` / ``--no-cache`` (content-addressed result
reuse across runs; see ``docs/caching.md``).
"""

import argparse
import contextlib
import sys


def _add_observability_flags(subparser):
    subparser.add_argument("--trace", metavar="PATH", default=None,
                           help="write telemetry spans/events to a JSONL "
                                "trace file")
    subparser.add_argument("--metrics", action="store_true",
                           help="print the metrics summary table after "
                                "the run")


def _count_flag(text):
    """Parse a count flag such as ``--retries``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be an integer >= 1, got %r" % text)
    return value


def _workers_flag(text):
    """Parse ``--workers``: an integer >= 1 or the string ``auto``."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return _count_flag(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            "must be an integer >= 1 or 'auto', got %r" % text)


def _seconds_flag(text):
    """Parse ``--timeout``: a positive number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0.0:  # also rejects nan
        raise argparse.ArgumentTypeError(
            "must be a positive number of seconds, got %r" % text)
    return value


def _add_parallel_flags(subparser):
    subparser.add_argument("--workers", type=_workers_flag, default=None,
                           metavar="N",
                           help="worker processes for the command's "
                                "fan-out path: a count, or 'auto' to "
                                "size the pool from the machine's cores "
                                "(default: REPRO_WORKERS env or 1 == "
                                "serial; see docs/parallelism.md)")


def _add_resilience_flags(subparser):
    subparser.add_argument("--retries", type=_count_flag, default=None,
                           metavar="N",
                           help="attempts per failed parallel chunk "
                                "(1 == no retry; see docs/resilience.md)")
    subparser.add_argument("--timeout", type=_seconds_flag, default=None,
                           metavar="S",
                           help="per-chunk wall-clock budget in seconds "
                                "(enforced when worker processes are in "
                                "use)")
    subparser.add_argument("--checkpoint", metavar="PATH", default=None,
                           help="JSON checkpoint updated as chunks "
                                "finish; an existing file is resumed "
                                "(finished chunks are skipped)")
    subparser.add_argument("--resume", metavar="PATH", default=None,
                           help="resume from this checkpoint file (must "
                                "exist; implies --checkpoint PATH)")


def _add_cache_flags(subparser):
    subparser.add_argument("--cache-dir", metavar="PATH", default=None,
                           help="content-addressed result cache "
                                "directory; repeated workloads replay "
                                "stored results bit-identically (see "
                                "docs/caching.md)")
    subparser.add_argument("--no-cache", action="store_true",
                           help="disable result caching for this run "
                                "(overrides --cache-dir and the "
                                "REPRO_CACHE_DIR environment variable)")


def _cache_arg(args):
    """The caching flags as the kernels' ``cache=`` argument.

    ``--no-cache`` wins (``False`` disables caching outright, including
    the ``REPRO_CACHE_DIR`` environment default); ``--cache-dir``
    selects a directory; otherwise ``None`` defers to the environment.
    """
    if getattr(args, "no_cache", False):
        return False
    return getattr(args, "cache_dir", None)


def _wants_cache(args):
    """True when --cache-dir was given explicitly."""
    return getattr(args, "cache_dir", None) is not None


def _resilience_kwargs(args):
    """The resilience flags as call-site keyword arguments."""
    return {"retry": getattr(args, "retries", None),
            "timeout": getattr(args, "timeout", None),
            "checkpoint": getattr(args, "checkpoint", None),
            "resume_from": getattr(args, "resume", None)}


def _wants_resilience(args):
    """True when any resilience flag was given."""
    return any(value is not None
               for value in _resilience_kwargs(args).values())


@contextlib.contextmanager
def _telemetry_scope(args, out):
    """Enable telemetry for one command when --trace/--metrics ask for it.

    Installs a fresh registry (with a JSONL sink when tracing), restores
    the previous registry afterwards, and renders the summary table when
    requested.
    """
    from .core import telemetry
    from .core.tracing import JsonlSink

    if not (getattr(args, "trace", None) or getattr(args, "metrics", False)):
        yield None
        return
    registry = telemetry.MetricsRegistry()
    sink = None
    if args.trace:
        # fail fast on an unwritable path, and truncate: each CLI run
        # produces its own trace (the sink itself appends, for library
        # users who share one file across runs).
        try:
            open(args.trace, "w").close()
        except OSError as error:
            raise SystemExit("repro: cannot write trace file %r: %s"
                             % (args.trace, error))
        sink = registry.add_sink(JsonlSink(args.trace))
    try:
        with telemetry.use_registry(registry):
            yield registry
    finally:
        if sink is not None:
            sink.close()
            out.write("trace: %d events -> %s\n"
                      % (sink.events_written, sink.path))
        if args.metrics:
            out.write("\n" + telemetry.render_summary(registry.snapshot())
                      + "\n")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Rebooting Our Computing Models' "
                    "(DATE 2019): quantum accelerator, VO2 oscillators, "
                    "digital memcomputing.")
    commands = parser.add_subparsers(dest="command")

    commands.add_parser("info", help="library overview")

    solve = commands.add_parser("solve",
                                help="solve a DIMACS CNF file")
    solve.add_argument("path", help="DIMACS .cnf file")
    solve.add_argument("--solver", choices=("dmm", "walksat", "dpll"),
                       default="dmm")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--max-steps", type=int, default=500_000,
                       help="DMM integration / WalkSAT flip budget")
    _add_observability_flags(solve)
    _add_parallel_flags(solve)
    _add_resilience_flags(solve)
    _add_cache_flags(solve)

    factor = commands.add_parser("factor",
                                 help="factor a composite integer")
    factor.add_argument("n", type=int)
    factor.add_argument("--method", choices=("shor", "memcomputing"),
                        default="shor")
    factor.add_argument("--seed", type=int, default=0)
    _add_observability_flags(factor)
    _add_parallel_flags(factor)
    _add_resilience_flags(factor)
    _add_cache_flags(factor)

    distance = commands.add_parser(
        "distance",
        help="evaluate the oscillator distance primitive on intensity "
             "pairs")
    distance.add_argument("values", type=float, nargs="+", metavar="V",
                          help="an even number of intensities, read as "
                               "(a, b) pairs")
    distance.add_argument("--mode", choices=("behavioral", "physical"),
                          default="behavioral",
                          help="closed-form calibrated response or full "
                               "coupled-pair ODE simulation")
    _add_observability_flags(distance)
    _add_parallel_flags(distance)
    _add_resilience_flags(distance)
    _add_cache_flags(distance)

    profile = commands.add_parser(
        "profile",
        help="run a repro command under the performance profiler",
        description="Wrap another repro command (solve, factor, "
                    "distance) in the performance-attribution profiler: "
                    "prints the self-time vs. cumulative-time table and "
                    "writes a Chrome trace loadable in Perfetto "
                    "(https://ui.perfetto.dev) or chrome://tracing.")
    profile.add_argument("--out", metavar="PATH",
                         default="repro-profile-trace.json",
                         help="Chrome trace output file (default: "
                              "%(default)s)")
    profile.add_argument("--sort", choices=("self", "cum"),
                         default="self",
                         help="attribution table order: 'self' ranks "
                              "hot spots flat by self time, 'cum' keeps "
                              "tree order (default: %(default)s)")
    profile.add_argument("--top", type=int, default=30, metavar="N",
                         help="rows in the attribution table (default: "
                              "%(default)s)")
    profile.add_argument("rest", nargs=argparse.REMAINDER,
                         metavar="COMMAND ...",
                         help="the repro command to profile, with its "
                              "own arguments (e.g. 'factor 15 --seed 1')")

    serve = commands.add_parser(
        "serve",
        help="run the asyncio job service over the paradigm kernels",
        description="Serve solve/factor/distance/detect jobs over HTTP "
                    "on the shared persistent worker pool, with "
                    "priority admission control, request coalescing, "
                    "and the content-addressed result cache as the "
                    "multi-tenant result store (see docs/serving.md).")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port; 0 picks a free one (default: "
                            "%(default)s)")
    serve.add_argument("--queue-depth", type=int, default=64, metavar="N",
                       help="queued jobs beyond this are rejected with "
                            "429 (default: %(default)s)")
    serve.add_argument("--tenant-quota", type=int, default=16,
                       metavar="N",
                       help="max jobs one tenant may hold queued or "
                            "running; 0 disables quotas (default: "
                            "%(default)s)")
    serve.add_argument("--retries", type=_count_flag, default=2,
                       metavar="N",
                       help="attempts per failed kernel chunk -- the "
                            "default 2 retries a crashed worker once "
                            "(default: %(default)s)")
    serve.add_argument("--timeout", type=_seconds_flag, default=None,
                       metavar="S",
                       help="per-chunk wall-clock budget for every job "
                            "(enforced through the pool even at "
                            "--workers 1)")
    serve.add_argument("--batch-pairs", type=int, default=4096,
                       metavar="N",
                       help="pair budget when merging compatible queued "
                            "distance jobs into one vectorized call "
                            "(default: %(default)s)")
    serve.add_argument("--job-concurrency", type=int, default=2,
                       metavar="N",
                       help="jobs dispatched concurrently (default: "
                            "%(default)s)")
    serve.add_argument("--slo", metavar="PATH", default=None,
                       help="SLO spec (TOML or JSON) served at /v1/slo "
                            "as a burn-rate report (see "
                            "docs/observability.md)")
    serve.add_argument("--flight-dir", metavar="PATH", default=None,
                       help="directory for flight-recorder dumps: the "
                            "last --flight-events telemetry events are "
                            "written as JSONL when a job fails or a "
                            "worker is killed")
    serve.add_argument("--flight-events", type=int, default=256,
                       metavar="N",
                       help="flight-recorder ring size (default: "
                            "%(default)s)")
    _add_observability_flags(serve)
    _add_parallel_flags(serve)
    _add_cache_flags(serve)

    slo = commands.add_parser(
        "slo",
        help="evaluate an SLO spec against a saved metrics snapshot",
        description="Evaluate a declarative SLO spec (TOML or JSON) "
                    "against a metrics snapshot saved from "
                    "GET /v1/metrics or a benchmark results file with a "
                    "'telemetry' key.  'check' prints the burn-rate "
                    "report and exits 1 when any objective is breached "
                    "-- a CI gate in one command.")
    slo.add_argument("action", choices=("check",),
                     help="'check': exit 0 when every objective holds, "
                          "1 on breach, 2 on usage errors")
    slo.add_argument("snapshot", metavar="SNAPSHOT",
                     help="metrics snapshot JSON (a /v1/metrics body, "
                          "or any JSON object with a 'telemetry' key "
                          "holding one)")
    slo.add_argument("--spec", metavar="PATH", required=True,
                     help="SLO spec file (.toml or .json)")

    commands.add_parser("reproduce",
                        help="how to regenerate the paper's results")
    return parser


def _run_info(_args, out):
    import repro

    out.write("repro %s -- reproduction of 'Rebooting Our Computing "
              "Models' (DATE 2019)\n\n" % repro.__version__)
    out.write("packages:\n")
    out.write("  repro.quantum       Section II  (accelerator stack, "
              "Shor, DNA, adiabatic)\n")
    out.write("  repro.oscillators   Section III (VO2 cells, locking, "
              "FAST, power models)\n")
    out.write("  repro.memcomputing  Section IV  (SOLGs, DMM SAT/MaxSAT/"
              "ILP, RBM, spin glass)\n")
    out.write("  repro.core          shared substrate (integrators, CNF, "
              "signals)\n")
    return 0


def _run_solve(args, out):
    from .core.io import load_dimacs

    formula = load_dimacs(args.path)
    out.write("instance: %d variables, %d clauses\n"
              % (formula.num_variables, formula.num_clauses))
    from .core.parallel import DEFAULT_CHUNKS, resolve_workers, wants_fanout

    workers = resolve_workers(getattr(args, "workers", None))
    if args.solver == "dmm":
        from .memcomputing.solver import DmmSolver, solve_portfolio

        if wants_fanout(workers) or _wants_resilience(args) \
                or _wants_cache(args):
            # The attempt count shapes the portfolio workload (and so
            # its result): it must come from the request, never from the
            # machine, so "auto" pins the engine's default fan-out width
            # rather than the local core count.
            attempts = DEFAULT_CHUNKS if isinstance(workers, str) \
                else max(workers, 2)
            portfolio = solve_portfolio(formula,
                                        attempts=attempts,
                                        workers=workers,
                                        max_steps=args.max_steps,
                                        rng=args.seed,
                                        cache=_cache_arg(args),
                                        **_resilience_kwargs(args))
            result = portfolio.best
            if result is None:
                out.write("s UNKNOWN (every portfolio member failed)\n")
                return 1
            satisfied = result.satisfied
            work = "%d steps, best of %d restarts" % (result.steps,
                                                      portfolio.attempts)
        else:
            result = DmmSolver(max_steps=args.max_steps).solve(
                formula, rng=args.seed)
            satisfied, work = result.satisfied, "%d steps" % result.steps
        assignment = result.assignment
    elif args.solver == "walksat":
        from .memcomputing.baselines import WalkSatSolver

        result = WalkSatSolver(max_flips=args.max_steps).solve(
            formula, rng=args.seed)
        satisfied, work = result.satisfied, "%d flips" % result.flips
        assignment = result.assignment
    else:
        from .memcomputing.baselines import DpllSolver

        result = DpllSolver().solve(formula)
        satisfied = bool(result.satisfiable)
        work = "%d nodes" % result.nodes
        assignment = result.assignment
    if satisfied:
        literals = " ".join(str(v if assignment[v] else -v)
                            for v in sorted(assignment))
        out.write("s SATISFIABLE (%s)\nv %s 0\n" % (work, literals))
        return 0
    out.write("s %s (%s)\n"
              % ("UNSATISFIABLE" if args.solver == "dpll"
                 and result.satisfiable is False else "UNKNOWN", work))
    return 1


def _run_factor(args, out):
    if args.n < 4:
        out.write("error: need a composite >= 4\n")
        return 2
    if args.method == "shor":
        from .quantum.algorithms.shor import shor_factor

        # find_order's checkpoint is a rolling file pinned to the base
        # and RNG state, so --resume is just the same path.
        checkpoint = getattr(args, "checkpoint", None) \
            or getattr(args, "resume", None)
        result = shor_factor(args.n, rng=args.seed,
                             workers=getattr(args, "workers", None),
                             timeout=getattr(args, "timeout", None),
                             retry=getattr(args, "retries", None),
                             checkpoint=checkpoint,
                             cache=_cache_arg(args))
        if not result.succeeded:
            out.write("no factors found (try another seed)\n")
            return 1
        factors = result.factors
        out.write("%d = %d * %d   (%s)\n"
                  % (args.n, factors[0], factors[1], result.method))
        return 0
    from .core.exceptions import SolgError
    from .memcomputing.circuit import factor_with_memcomputing

    try:
        factor_a, factor_b = factor_with_memcomputing(args.n,
                                                      rng=args.seed)
    except SolgError as error:
        out.write("memcomputing found no steady state: %s\n" % error)
        return 1
    out.write("%d = %d * %d   (inverted SOLG multiplier)\n"
              % (args.n, factor_a, factor_b))
    return 0


def _run_distance(args, out):
    from .core import telemetry
    from .oscillators.distance import OscillatorDistanceUnit

    if len(args.values) % 2 != 0:
        out.write("error: distance needs an even number of intensities "
                  "(read as (a, b) pairs)\n")
        return 2
    pairs = [(args.values[i], args.values[i + 1])
             for i in range(0, len(args.values), 2)]
    unit = OscillatorDistanceUnit(mode=args.mode)
    if len(pairs) == 1:
        (a, b), = pairs
        with telemetry.span("oscillator.distance.evaluate", mode=args.mode,
                            a=a, b=b) as eval_span:
            measure = unit.measure(a, b)
            eval_span.set_attr("measure", measure)
        out.write("distance(%g, %g) = %.6f   (mode=%s, |delta|=%g)\n"
                  % (a, b, measure, args.mode, abs(a - b)))
        return 0
    with telemetry.span("oscillator.distance.evaluate", mode=args.mode,
                        pairs=len(pairs)) as eval_span:
        measures = unit.measure_pairs(
            pairs, workers=getattr(args, "workers", None),
            cache=_cache_arg(args), **_resilience_kwargs(args))
        eval_span.set_attr("pairs", len(pairs))
    for (a, b), measure in zip(pairs, measures):
        out.write("distance(%g, %g) = %.6f   (mode=%s, |delta|=%g)\n"
                  % (a, b, measure, args.mode, abs(a - b)))
    out.write("%d pairs scored\n" % len(pairs))
    return 0


#: Commands `repro profile` may wrap: the ones with real kernels behind
#: them (profiling `info` or `reproduce` would trace nothing).
_PROFILABLE = ("solve", "factor", "distance")


def _run_profile(args, out):
    """Run a wrapped command under the profiler; emit table + trace."""
    from .core import profiling, telemetry
    from .core.tracing import JsonlSink, write_chrome_trace

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest or rest[0] not in _PROFILABLE:
        out.write("error: profile needs a command to wrap: "
                  "repro profile [--out PATH] {%s} ...\n"
                  % ",".join(_PROFILABLE))
        return 2
    if args.top is not None and args.top < 1:
        out.write("error: --top must be >= 1\n")
        return 2
    inner = _build_parser().parse_args(rest)
    # fail fast on an unwritable trace path, before any compute
    try:
        open(args.out, "w").close()
    except OSError as error:
        raise SystemExit("repro: cannot write trace file %r: %s"
                         % (args.out, error))
    registry = telemetry.MetricsRegistry()
    sink = registry.add_sink(profiling.ProfileSink())
    jsonl = None
    if getattr(inner, "trace", None):
        try:
            open(inner.trace, "w").close()
        except OSError as error:
            raise SystemExit("repro: cannot write trace file %r: %s"
                             % (inner.trace, error))
        jsonl = registry.add_sink(JsonlSink(inner.trace))
    handlers = {"solve": _run_solve, "factor": _run_factor,
                "distance": _run_distance}
    try:
        with telemetry.use_registry(registry):
            code = handlers[inner.command](inner, out)
    finally:
        if jsonl is not None:
            jsonl.close()
    events = write_chrome_trace(sink.events, args.out)
    profile = sink.profile()
    out.write("\n" + profile.render(sort=args.sort, limit=args.top,
                                    title="performance profile: %s"
                                    % " ".join(rest)) + "\n")
    out.write("\nchrome trace: %d events -> %s "
              "(open at https://ui.perfetto.dev or chrome://tracing)\n"
              % (events, args.out))
    if jsonl is not None:
        out.write("trace: %d events -> %s\n"
                  % (jsonl.events_written, jsonl.path))
    if getattr(inner, "metrics", False):
        out.write("\n" + telemetry.render_summary(registry.snapshot())
                  + "\n")
    return code


def _run_serve(args, out):
    import asyncio

    from .serve import JobService, ServeApp, ServeConfig

    from .core.exceptions import SloError

    try:
        config = ServeConfig(
            workers=args.workers, timeout=args.timeout,
            retries=args.retries, cache=_cache_arg(args),
            queue_depth=args.queue_depth,
            tenant_quota=args.tenant_quota if args.tenant_quota > 0
            else None,
            batch_pairs=args.batch_pairs,
            job_concurrency=args.job_concurrency,
            slo=args.slo, flight_dir=args.flight_dir,
            flight_events=args.flight_events)
    except SloError as error:
        out.write("error: %s\n" % error)
        return 2

    async def _serve():
        app = ServeApp(JobService(config), host=args.host, port=args.port)
        await app.start()
        out.write("repro serve listening on http://%s:%d\n"
                  % (args.host, app.port))
        out.write("POST /v1/jobs; GET /v1/jobs/<id>, /v1/healthz, "
                  "/v1/metrics, /v1/slo, /v1/stats; Ctrl-C stops\n")
        try:
            await app.serve_forever()
        finally:
            await app.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        out.write("repro serve stopped\n")
    return 0


def _render_slo_report(report, out):
    """Human-readable burn-rate lines, one per objective."""
    for entry in report["objectives"]:
        scope = "kind=%s tenant=%s" % (entry["kind"], entry["tenant"])
        verdict = "ok" if entry["ok"] else "BREACH"
        parts = []
        latency = entry.get("latency")
        if latency is not None:
            observed = latency["observed_ms"]
            parts.append(
                "p%02d %s / %gms objective (burn %s)"
                % (round(latency["quantile"] * 100),
                   "n/a" if observed is None else "%.1fms" % observed,
                   latency["objective_ms"],
                   "n/a" if latency["burn_rate"] is None
                   else "%.2f" % latency["burn_rate"]))
        errors = entry.get("errors")
        if errors is not None:
            rate = errors["observed_rate"]
            parts.append(
                "errors %s / %g objective (%d of %d jobs)"
                % ("n/a" if rate is None else "%.4f" % rate,
                   errors["objective_rate"], errors["errors"],
                   errors["total"]))
        out.write("%-7s %s [%s]: %s\n"
                  % (verdict, entry["name"], scope, "; ".join(parts)))
    counts = report["counts"]
    out.write("%d objective(s), %d breached\n"
              % (counts["total"], counts["breached"]))


def _run_slo(args, out):
    import json

    from .core.exceptions import SloError
    from .serve.slo import evaluate, load_slo

    try:
        spec = load_slo(args.spec)
    except (OSError, SloError) as error:
        out.write("error: %s\n" % error)
        return 2
    try:
        with open(args.snapshot) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        out.write("error: cannot read snapshot %r: %s\n"
                  % (args.snapshot, error))
        return 2
    # A benchmark results file wraps the registry snapshot under a
    # "telemetry" key; a /v1/metrics body *is* the snapshot.
    if isinstance(data, dict) and isinstance(data.get("telemetry"), dict):
        data = data["telemetry"]
    if not isinstance(data, dict) or not all(
            isinstance(entry, dict) and "kind" in entry
            for entry in data.values()):
        out.write("error: %r is not a metrics snapshot (expected a "
                  "JSON object of metric entries, each with a 'kind')\n"
                  % args.snapshot)
        return 2
    report = evaluate(spec, data)
    _render_slo_report(report, out)
    return 0 if report["ok"] else 1


def _run_reproduce(_args, out):
    out.write("regenerate every figure and in-text claim of the paper:\n\n")
    out.write("  pytest benchmarks/ --benchmark-only\n\n")
    out.write("tables are printed and saved under benchmarks/results/;\n")
    out.write("see DESIGN.md (experiment index) and EXPERIMENTS.md\n")
    out.write("(paper-vs-measured) for the mapping.\n")
    return 0


def main(argv=None, out=None):
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "info": _run_info,
        "solve": _run_solve,
        "factor": _run_factor,
        "distance": _run_distance,
        "profile": _run_profile,
        "serve": _run_serve,
        "slo": _run_slo,
        "reproduce": _run_reproduce,
    }
    if args.command is None:
        parser.print_help(out)
        return 0
    with _telemetry_scope(args, out):
        return handlers[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
