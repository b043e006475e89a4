"""Lint: the library must never write to stdout on its own.

Output is a CLI decision (``repro.cli``) or a file the caller names
(``tracing.JsonlSink``); a stray ``print`` deep in a solver corrupts
machine-readable output (DIMACS model lines, JSONL traces, piped
tables).  The rule extends to the parallel execution engine's worker
entry points (``core.parallel`` and the ``_*_chunk``/``_*_attempt``
functions it dispatches): a forked worker inherits the parent's file
descriptors, so a stray write from a child corrupts the parent's stdout
just as surely -- and interleaved across processes.  This walks
``src/repro`` ASTs and flags

* any ``print(...)`` call,
* any ``sys.stdout`` / ``sys.stderr`` attribute access, including the
  ``sys.__stdout__`` / ``sys.__stderr__`` originals workers could reach
  after a redirect,
* ``from sys import stdout`` (and ``stderr``) aliases,
* ``os.write(1, ...)`` / ``os.write(2, ...)`` -- the raw-fd escape
  hatch available inside a forked worker,
* ``os._exit(...)`` -- kills the process with no cleanup and no
  traceback; only the fault-injection harness
  (``core/resilience.py``'s ``kill`` faults) may use it,

outside the allowlist.  The serving stack (``repro.serve``) is
*strict*: the allowlist cannot exempt it, because everything a server
says belongs in an HTTP response body, never on the process streams.
Docstrings and comments are naturally exempt (they never parse as
calls).  Run directly or via ``make lint``::

    python tools/lint_no_stdout.py
"""

import ast
import os
import sys

#: sys attributes that reach the process's standard streams.
_STREAM_ATTRS = ("stdout", "stderr", "__stdout__", "__stderr__")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY_ROOT = os.path.join(REPO_ROOT, "src", "repro")

#: Paths (relative to src/repro) that legitimately own process output.
ALLOWLIST = frozenset({
    "cli.py",  # the CLI is *the* place stdout decisions are made
})

#: Path prefixes (relative to src/repro) where the allowlist does NOT
#: apply: the serving stack answers over HTTP response bodies, and its
#: process stdout may be piped or captured by a supervisor -- a stray
#: print would interleave with nothing useful and could corrupt
#: log-shipping.  Adding a serve path to ALLOWLIST has no effect;
#: these are linted unconditionally.
STRICT_PREFIXES = ("serve" + os.sep,)

#: Paths (relative to src/repro) allowed to call ``os._exit``: the
#: fault-injection harness deliberately kills worker processes to
#: exercise crash detection.
EXIT_ALLOWLIST = frozenset({
    os.path.join("core", "resilience.py"),
})


def _is_fd_write(node):
    """True for ``os.write(1, ...)`` / ``os.write(2, ...)`` calls."""
    return (isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os"
            and node.func.attr == "write"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in (1, 2))


def _is_hard_exit(node):
    """True for ``os._exit(...)`` calls."""
    return (isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "os"
            and node.func.attr == "_exit")


def _violations_in(tree, allow_exit=False):
    """Yield (lineno, message) for each stdout use in one module AST."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                yield node.lineno, "print() call"
            elif _is_fd_write(node):
                yield (node.lineno,
                       "os.write(%d, ...) call" % node.args[0].value)
            elif _is_hard_exit(node) and not allow_exit:
                yield node.lineno, "os._exit() call"
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
                and node.attr in _STREAM_ATTRS):
            yield node.lineno, "sys.%s access" % node.attr
        elif (isinstance(node, ast.ImportFrom)
                and node.module == "sys"):
            for alias in node.names:
                if alias.name in _STREAM_ATTRS:
                    yield (node.lineno,
                           "from sys import %s" % alias.name)


def lint(library_root=LIBRARY_ROOT, out=sys.stderr):
    """Return the number of violations found (0 == clean)."""
    count = 0
    for dirpath, _dirnames, filenames in sorted(os.walk(library_root)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relative = os.path.relpath(path, library_root)
            strict = relative.startswith(STRICT_PREFIXES)
            if relative in ALLOWLIST and not strict:
                continue
            with open(path) as handle:
                tree = ast.parse(handle.read(), filename=relative)
            allow_exit = relative in EXIT_ALLOWLIST
            for lineno, message in _violations_in(tree,
                                                  allow_exit=allow_exit):
                out.write("%s:%d: %s (library modules must not write "
                          "to stdout or hard-exit; see "
                          "docs/observability.md)\n"
                          % (os.path.join("src", "repro", relative),
                             lineno, message))
                count += 1
    return count


def main():
    violations = lint()
    if violations:
        sys.stderr.write("lint_no_stdout: %d violation(s)\n" % violations)
        return 1
    sys.stderr.write("lint_no_stdout: clean\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
