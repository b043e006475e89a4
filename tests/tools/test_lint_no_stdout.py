"""Tests for the stdout lint's strict serve-path rule (PR 9): the
serving stack cannot be exempted via the allowlist -- servers answer
in response bodies, never on the process streams.
"""

import io
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import lint_no_stdout  # noqa: E402


def _write_module(root, relative, source):
    path = os.path.join(root, relative)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write(source)


class TestStrictServePaths:
    def test_real_tree_is_clean(self):
        out = io.StringIO()
        assert lint_no_stdout.lint(out=out) == 0, out.getvalue()

    def test_serve_print_flagged(self, tmp_path):
        root = str(tmp_path)
        _write_module(root, os.path.join("serve", "app.py"),
                      "def f():\n    print('leak')\n")
        out = io.StringIO()
        assert lint_no_stdout.lint(library_root=root, out=out) == 1
        assert "print() call" in out.getvalue()

    def test_allowlist_cannot_exempt_serve(self, tmp_path, monkeypatch):
        root = str(tmp_path)
        relative = os.path.join("serve", "service.py")
        _write_module(root, relative,
                      "import sys\n"
                      "def f():\n    sys.stdout.write('leak')\n")
        # even an explicit allowlist entry must not silence serve paths
        monkeypatch.setattr(lint_no_stdout, "ALLOWLIST",
                            frozenset({relative}))
        out = io.StringIO()
        assert lint_no_stdout.lint(library_root=root, out=out) == 1
        assert "sys.stdout access" in out.getvalue()

    def test_allowlist_still_works_outside_serve(self, tmp_path,
                                                 monkeypatch):
        root = str(tmp_path)
        _write_module(root, "cli.py", "def f():\n    print('fine')\n")
        monkeypatch.setattr(lint_no_stdout, "ALLOWLIST",
                            frozenset({"cli.py"}))
        out = io.StringIO()
        assert lint_no_stdout.lint(library_root=root, out=out) == 0
