"""Every ``src/repro`` module is reachable from a user entry point.

Walks static imports (stdlib ``ast``) from the entry points: each
package's ``__main__``, the ``iqpaths`` script, ``tools/`` and the
measurement spine.  Examples are not entry points: a module only an
example runs is demo code, not part of the product.
``from pkg import Name`` follows ``pkg/__init__``'s own import of
``Name``, and an ``__init__``'s imports count only for names its own
body uses, so a re-export alone does not make a module reachable.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Modules run by name: the iqpaths console script.
RUN_BY_NAME = ("repro.harness.cli",)


def _file(module):
    """Source file of a first-party module; ``None`` for any other."""
    rel = Path(*module.split("."))
    for base in (SRC, ROOT):
        for path in (base / f"{rel}.py", base / rel / "__init__.py"):
            if path.is_file():
                return path
    return None


def _imports(path):
    """``(module, name, bound)`` per import that runs code in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(a.name, None, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {path}"
            found += [(node.module, a.name, a.asname or a.name) for a in node.names]
    if path.name != "__init__.py":
        return found
    body = [s for s in tree.body if not isinstance(s, (ast.Import, ast.ImportFrom))]
    used = {n.id for s in body for n in ast.walk(s) if isinstance(n, ast.Name)}
    return [imp for imp in found if imp[2] in used]


def _resolve(module, name):
    """The file an import takes ``name`` from, through re-exports."""
    path = _file(module)
    if path is None or name is None or path.name != "__init__.py":
        return path
    sub = _file(f"{module}.{name}")
    if sub is not None:
        return sub
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(node.module, alias.name)
    return path  # defined in the package body itself


def test_every_module_is_reachable_from_an_entry_point():
    todo = list((ROOT / "tools").glob("*.py"))
    todo += (ROOT / "benchmarks" / "spine").glob("*.py")
    todo += [*SRC.rglob("__main__.py"), *map(_file, RUN_BY_NAME)]
    seen = set()
    while todo:
        path = todo.pop()
        if path not in seen:
            seen.add(path)
            todo += filter(None, (_resolve(m, n) for m, n, _ in _imports(path)))
    orphans = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py" and path not in seen
    )
    assert not orphans, f"modules no entry point imports: {orphans}"
