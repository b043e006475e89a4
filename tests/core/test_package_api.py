"""Public-API sanity: every exported name exists and is importable, and
library options are arguments, never environment variables."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.quantum",
    "repro.quantum.algorithms",
    "repro.oscillators",
    "repro.oscillators.fast",
    "repro.memcomputing",
    "repro.memcomputing.baselines",
    "repro.inmemory",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_imports(package_name):
    module = importlib.import_module(package_name)
    assert module is not None


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    module = importlib.import_module(package_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), \
            "%s.__all__ lists missing name %r" % (package_name, name)


def test_import_repro_loads_no_paradigm():
    """``import repro`` alone leaves the paradigm packages unloaded;
    they load on first attribute access."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    script = ("import sys, repro; "
              "assert 'repro.quantum' not in sys.modules; "
              "repro.quantum; "
              "assert 'repro.quantum' in sys.modules")
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src_dir),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_unknown_attribute_raises():
    import repro

    with pytest.raises(AttributeError):
        repro.not_a_subpackage


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_exception_hierarchy_rooted():
    from repro.core import exceptions

    roots = 0
    for name in dir(exceptions):
        obj = getattr(exceptions, name)
        if isinstance(obj, type) and issubclass(obj, Exception) \
                and obj.__module__ == exceptions.__name__:
            if obj is exceptions.ReproError:
                roots += 1
            else:
                assert issubclass(obj, exceptions.ReproError), name
    assert roots == 1


#: The one environment read the library keeps: ``REPRO_CACHE_DISK_BYTES``
#: only bounds the disk a ``--cache-dir`` store uses and changes no
#: answer.  Keyed by path under ``src/repro`` and enclosing function.
ALLOWED_ENVIRONMENT_READS = {("core/cache.py", "_env_disk_budget")}

_ENVIRONMENT_NAMES = ("environ", "environb", "getenv", "getenvb")


def _environment_reads(path):
    """``(line, enclosing function)`` of every ``os.environ``,
    ``os.getenv`` (or ``from os import`` of either) in one module."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    reads = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) \
                    and child.attr in _ENVIRONMENT_NAMES \
                    and isinstance(child.value, ast.Name) \
                    and child.value.id == "os":
                reads.append((child.lineno, function))
            if isinstance(child, ast.ImportFrom) and child.module == "os" \
                    and any(alias.name in _ENVIRONMENT_NAMES
                            for alias in child.names):
                reads.append((child.lineno, function))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(tree, None)
    return reads


def test_no_option_is_read_from_the_environment():
    """A library answer depends on the call's arguments alone: no module
    reads an environment variable but the disk-budget reader."""
    import repro

    package = os.path.dirname(repro.__file__)
    found = set()
    for root, _dirs, files in os.walk(package):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            module = os.path.relpath(path, package).replace(os.sep, "/")
            for line, function in _environment_reads(path):
                found.add((module, line, function))
    unexpected = sorted(read for read in found
                        if read[::2] not in ALLOWED_ENVIRONMENT_READS)
    assert not unexpected, unexpected
    assert {read[::2] for read in found} == ALLOWED_ENVIRONMENT_READS
