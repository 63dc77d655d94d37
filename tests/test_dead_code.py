"""No dead code in src/iglc: every import is used or re-exported by its
module's ``__all__``, every
top-level private name is referenced outside its own definition, and every
``__all__`` entry is bound in its module, or, for a name of the package's lazy
export table, in the sibling module that table names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "iglc"


def modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py"))}


def names_used(node: ast.AST) -> set[str]:
    """Names read, looked up as attributes, or imported from a sibling module."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            used |= {alias.name for alias in n.names}
    return used


def bound_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def lazy_exports(tree: ast.Module) -> list[tuple[str, str]]:
    """The package's lazy export table, ``_EXPORTS``, as (name, sibling module) pairs."""
    for stmt in tree.body:
        if "_EXPORTS" in bound_names(stmt):
            return [(name, module) for module, names in ast.literal_eval(stmt.value).items()
                    for name in names]
    return []


def exported_names(tree: ast.Module) -> list[str]:
    """A literal ``__all__``; one computed from the lazy table is that table's names."""
    for stmt in tree.body:
        if "__all__" in bound_names(stmt):
            if isinstance(stmt.value, (ast.List, ast.Tuple)):
                return ast.literal_eval(stmt.value)
            return [name for name, _ in lazy_exports(tree)]
    return []


def top_level_bound(tree: ast.Module) -> set[str]:
    bound = set()
    for stmt in tree.body:
        bound.update(bound_names(stmt))
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in stmt.names)
    return bound


def test_no_unused_imports():
    unused = []
    for filename, tree in modules().items():
        if filename == "__init__.py":       # its imports are the package's API
            continue
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                   and getattr(n, "module", None) != "__future__"]
        used = set(exported_names(tree))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                used.add(n.id)
        for imp in imports:
            for alias in imp.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{filename}:{imp.lineno} {bound}")
    assert not unused, unused


def test_no_unreferenced_private_top_level_names():
    trees = modules()
    statements = [(filename, stmt) for filename, tree in trees.items() for stmt in tree.body]
    used_by = [names_used(stmt) for _, stmt in statements]
    dead = []
    for i, (filename, stmt) in enumerate(statements):
        for name in bound_names(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in used for j, used in enumerate(used_by) if j != i):
                dead.append(f"{filename}:{stmt.lineno} {name}")
    assert not dead, dead


def test_every_all_entry_is_bound():
    trees = modules()
    missing = []
    exported = 0
    for filename, tree in trees.items():
        names, lazy = exported_names(tree), lazy_exports(tree)
        exported += len(names)
        for name in names:
            # a name of the lazy table must be bound in each sibling module it is listed under
            for module in [m for n, m in lazy if n == name] or [filename[:-3]]:
                home = trees.get(f"{module}.py")
                if home is None or name not in top_level_bound(home):
                    missing.append(f"{filename} {name}")
    assert exported > 50
    assert not missing, missing
