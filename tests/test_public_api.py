"""The advertised public API: imports, __all__ hygiene, version."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.traces",
    "repro.network",
    "repro.transport",
    "repro.monitoring",
    "repro.core",
    "repro.baselines",
    "repro.apps",
    "repro.middleware",
    "repro.harness",
    "repro.workload",
    "repro.topo",
    "repro.cluster",
    "repro.runner",
    "repro.checkpoint",
    "repro.obs",
    "repro.robustness",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    importlib.import_module(package)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_entries_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ lists {name!r}"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_top_level_convenience_exports():
    import repro

    # The README quickstart's names are importable from the root.
    assert repro.StreamSpec is not None
    assert repro.PGOSScheduler is not None
    assert repro.EmpiricalCDF is not None
    assert callable(repro.probabilistic_guarantee)
    assert callable(repro.violation_bound)


def test_every_public_module_has_docstring():
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        module = importlib.import_module(info.name)
        assert module.__doc__, f"{info.name} lacks a module docstring"


def test_no_module_reads_an_environment_variable():
    """A run is configured by its arguments alone: no ``os.environ.get``
    / ``os.getenv`` can swap behaviour under it."""
    import re
    from pathlib import Path

    import repro

    reads = re.compile(r"os\.environ\.get|getenv")
    offenders = [
        str(path)
        for path in sorted(Path(repro.__path__[0]).rglob("*.py"))
        if reads.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_no_module_imports_networkx():
    """Routes are built by construction: importing every ``repro``
    module in a fresh interpreter loads no graph library."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(repro.__path__[0])
    script = (
        "import importlib, pkgutil, sys, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, prefix='repro.'):\n"
        "    if '__main__' not in info.name:\n"
        "        importlib.import_module(info.name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('networkx')))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
