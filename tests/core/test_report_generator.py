"""Tests for the benchmark report collator (benchmarks/report.py)."""

import importlib.util
import os

import pytest


def load_report_module():
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "benchmarks", "report.py")
    spec = importlib.util.spec_from_file_location("bench_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def report():
    return load_report_module()


class TestBuildReport:
    def test_orders_known_sections(self, report, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig3_locking.txt").write_text("FIG3 table\n")
        (results / "dmm_sat.txt").write_text("DMM-SAT table\n")
        (results / "mystery.txt").write_text("surprise\n")
        text = report.build_report(str(results))
        assert text.index("FIG3 table") < text.index("DMM-SAT table")
        assert "## Other results" in text
        assert "surprise" in text

    def test_missing_directory_raises(self, report, tmp_path):
        with pytest.raises(FileNotFoundError):
            report.build_report(str(tmp_path / "nope"))

    def test_empty_directory_raises(self, report, tmp_path):
        empty = tmp_path / "results"
        empty.mkdir()
        with pytest.raises(FileNotFoundError):
            report.build_report(str(empty))

    def test_tables_embedded_verbatim(self, report, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        body = "HEADER\n=====\ncol  val\n---  ---\na    1\n"
        (results / "shor.txt").write_text(body)
        text = report.build_report(str(results))
        assert body.rstrip() in text

    def test_order_covers_every_shipped_benchmark(self, report):
        """Every bench_*.py's result name appears in the report ORDER."""
        bench_dir = os.path.join(os.path.dirname(__file__), "..", "..",
                                 "benchmarks")
        ordered = {name for _section, names in report.ORDER
                   for name in names}
        # names are the first argument of emit_table in each bench file
        import re

        for filename in os.listdir(bench_dir):
            if not filename.startswith("bench_"):
                continue
            with open(os.path.join(bench_dir, filename)) as handle:
                source = handle.read()
            match = re.search(r'emit_table\(\s*"([a-z0-9_]+)"', source)
            assert match, "no emit_table in %s" % filename
            assert match.group(1) in ordered, (
                "%s's result %r missing from report.ORDER"
                % (filename, match.group(1)))

    def test_committed_report_is_current(self, report):
        """REPORT.md is exactly what report.py builds from the committed
        results: regenerate it (`python benchmarks/report.py`, which
        `make bench` runs) whenever a results table changes.
        """
        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "REPORT.md")
        with open(path) as handle:
            committed = handle.read()
        assert report.build_report() == committed
