"""Collate benchmarks/results/ into REPORT.md plus a machine-readable index.

Run after the benchmark suite::

    pytest benchmarks/ --benchmark-only
    python benchmarks/report.py

The report orders experiments as DESIGN.md's index does (figures, then
in-text claims, then extensions) and embeds every saved table verbatim,
so one file carries the complete reproduction evidence.  Alongside the
markdown, every ``results/<name>.json`` companion (rows + telemetry
registry snapshot, written by ``conftest.emit_table``) is collated into
``results/report.json`` so perf tooling can diff runs without scraping
text.
"""

import json
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Display order; anything present but unlisted is appended at the end.
ORDER = [
    ("Figures", ["fig1_hetero", "fig2_stack", "fig3_locking",
                 "fig4_readout", "fig5_norms", "fig6_fast"]),
    ("In-text quantitative claims",
     ["power_comparison", "shor", "dna", "dmm_sat", "dmm_maxsat",
      "dmm_tts", "dmm_rbm", "dmm_spinglass", "dmm_noise", "dmm_instantons"]),
    ("Extensions",
     ["oscillator_applications", "quantum_noise", "ablation_dmm_memory",
      "ablation_topology", "cross_paradigm_ising", "ilp", "inmemory",
      "telemetry_overhead", "profiling_overhead", "kernel_throughput",
      "parallel_scaling", "retry_overhead", "cache_warm",
      "serve_throughput"]),
]


def _serving_latency_lines(results_dir):
    """A p50/p95/p99 serving-latency table, when the serve benchmark
    ran (exact nearest-rank quantiles of the burst's per-job
    submit-to-settle latency; ``serve_p95_ms`` is the hard-pinned
    budget in ``baseline.json``).
    """
    path = os.path.join(results_dir, "serve_throughput.json")
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        metrics = json.load(handle).get("metrics", {})
    quantiles = [(label, metrics.get("serve_%s_ms" % label))
                 for label in ("p50", "p95", "p99")]
    if any(value is None for _label, value in quantiles):
        return []
    return [
        "## Serving latency",
        "",
        "| quantile | submit-to-settle [ms] |",
        "|----------|----------------------:|",
    ] + ["| %s | %.2f |" % (label, value)
         for label, value in quantiles] + [
        "",
        "Nearest-rank quantiles of the per-job submit-to-settle "
        "latency over the `serve_throughput` burst; `serve_p95_ms` is "
        "a hard `max` budget in `baseline.json` (see "
        "`docs/observability.md`).",
        "",
    ]


def build_report(results_dir=RESULTS_DIR):
    """Return the REPORT.md text; raises FileNotFoundError when empty."""
    if not os.path.isdir(results_dir):
        raise FileNotFoundError(
            "no results at %s -- run `pytest benchmarks/ "
            "--benchmark-only` first" % results_dir)
    available = {name[:-4] for name in os.listdir(results_dir)
                 if name.endswith(".txt")}
    if not available:
        raise FileNotFoundError("results directory is empty")
    lines = [
        "# Reproduction report",
        "",
        "Generated from `benchmarks/results/`; regenerate with "
        "`pytest benchmarks/ --benchmark-only && python "
        "benchmarks/report.py`.",
        "See `EXPERIMENTS.md` for the paper-vs-measured verdict table "
        "and `DESIGN.md` for the experiment index.",
        "",
    ]
    lines.extend(_serving_latency_lines(results_dir))
    covered = set()
    for section, names in ORDER:
        present = [name for name in names if name in available]
        if not present:
            continue
        lines.append("## %s" % section)
        lines.append("")
        for name in present:
            covered.add(name)
            with open(os.path.join(results_dir, name + ".txt")) as handle:
                table = handle.read().rstrip()
            lines.append("```text")
            lines.append(table)
            lines.append("```")
            lines.append("")
    leftovers = sorted(available - covered)
    if leftovers:
        lines.append("## Other results")
        lines.append("")
        for name in leftovers:
            with open(os.path.join(results_dir, name + ".txt")) as handle:
                table = handle.read().rstrip()
            lines.append("```text")
            lines.append(table)
            lines.append("```")
            lines.append("")
    return "\n".join(lines) + "\n"


def _ordered_names():
    """Every experiment name in DESIGN.md display order."""
    return [name for _section, names in ORDER for name in names]


def build_json_report(results_dir=RESULTS_DIR):
    """Collate the per-experiment JSON documents into one index dict.

    Returns ``{"experiments": [payload, ...]}`` ordered like the
    markdown report; experiments missing a JSON companion (older runs)
    are skipped.
    """
    if not os.path.isdir(results_dir):
        raise FileNotFoundError(
            "no results at %s -- run `pytest benchmarks/ "
            "--benchmark-only` first" % results_dir)
    available = {name[:-5] for name in os.listdir(results_dir)
                 if name.endswith(".json") and name != "report.json"}
    ordered = [name for name in _ordered_names() if name in available]
    ordered += sorted(available - set(ordered))
    experiments = []
    for name in ordered:
        with open(os.path.join(results_dir, name + ".json")) as handle:
            experiments.append(json.load(handle))
    return {"experiments": experiments}


def write_json_report(results_dir=RESULTS_DIR):
    """Write ``results/report.json``; returns its path (None when empty)."""
    index = build_json_report(results_dir)
    if not index["experiments"]:
        return None
    path = os.path.join(results_dir, "report.json")
    with open(path, "w") as handle:
        json.dump(index, handle, indent=2)
        handle.write("\n")
    return path


def main(output_path=None):
    """Write REPORT.md at the repository root; returns the path."""
    if output_path is None:
        output_path = os.path.join(os.path.dirname(__file__), "..",
                                   "REPORT.md")
    text = build_report()
    with open(output_path, "w") as handle:
        handle.write(text)
    json_path = write_json_report()
    print("wrote %s (%d experiments)%s"
          % (os.path.abspath(output_path), text.count("```text"),
             "" if json_path is None
             else "; machine-readable index at %s"
             % os.path.abspath(json_path)))
    return output_path


if __name__ == "__main__":
    sys.exit(0 if main(*sys.argv[1:2]) else 1)
