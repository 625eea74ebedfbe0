"""The production packages never import the simulation package.

``repro.sim`` holds the chaos harness and the reference implementations
production is checked against (the scan router among them); production
reaches them only through subclass seams such as
``CosmosSystem.network_type``.  An import from a production module back
into ``repro.sim`` would let oracle code leak into the data path.
"""

import ast
import pathlib

import pytest

import repro

PRODUCTION = ("cbn", "core", "cql", "overlay", "spe", "system", "workload")
PACKAGE_ROOT = pathlib.Path(repro.__file__).resolve().parent


def imported_modules(source, package):
    """Absolute names of every module (and imported member) that
    ``source``, living in ``package``, imports anywhere in its body."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def is_sim(module):
    return module == "repro.sim" or module.startswith("repro.sim.")


@pytest.mark.parametrize("subpackage", PRODUCTION)
def test_production_never_imports_sim(subpackage):
    files = sorted((PACKAGE_ROOT / subpackage).rglob("*.py"))
    assert files
    offenders = []
    for path in files:
        package = ".".join(
            path.relative_to(PACKAGE_ROOT.parent).parent.parts
        )
        offenders.extend(
            f"{path.relative_to(PACKAGE_ROOT)} imports {module}"
            for module in imported_modules(path.read_text(), package)
            if is_sim(module)
        )
    assert offenders == []


@pytest.mark.parametrize(
    "source",
    [
        "import repro.sim.oracle",
        "from repro.sim import oracle",
        "from repro.sim.oracle import ScanNetwork",
        "from ..sim import oracle",
        "from .. import sim",
        "def f():\n    from repro.sim.oracle import ScanNetwork\n",
    ],
)
def test_detector_flags_every_sim_import_shape(source):
    assert any(is_sim(m) for m in imported_modules(source, "repro.cbn"))
