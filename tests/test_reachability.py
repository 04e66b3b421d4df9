"""Every library module must have a caller in the system.

Starting from ``repro.cli``, ``repro.core.builder`` and every file under
``benchmarks/`` and ``bench/``, this test follows ``import`` statements
(parsed with :mod:`ast`; nothing is imported) through ``src/repro`` and
names every module it never reaches.  Tests and examples are not roots,
so a new module needs a system caller before it lands.  The ``python -m
repro`` shim, ``repro.__main__``, is the one exception.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def _imports(path: Path, package: str):
    """Every dotted name ``path`` may import, with its parent packages;
    ``from pkg import name`` yields ``pkg.name`` too, in case it is a
    module.  Relative imports resolve against ``package``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            yield from (".".join(parts[:i]) for i in range(1, len(parts) + 1))


def test_every_library_module_has_a_system_caller():
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__"
                         else parts)] = path
    frontier = ["repro.cli", "repro.core.builder"]
    for directory in ("benchmarks", "bench"):
        for path in (REPO / directory).rglob("*.py"):
            frontier += [m for m in _imports(path, "") if m in modules]
    reached = set(frontier)
    while frontier:
        module = frontier.pop()
        path = modules[module]
        package = (module if path.name == "__init__.py"
                   else module.rpartition(".")[0])
        for name in _imports(path, package):
            if name in modules and name not in reached:
                reached.add(name)
                frontier.append(name)
    unreached = sorted(set(modules) - reached - {"repro.__main__"})
    assert not unreached, (
        "no import path from repro.cli, repro.core.builder, benchmarks/ or "
        "bench/ reaches these modules; delete them or give them a caller: "
        + ", ".join(unreached))
