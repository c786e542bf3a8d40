"""The package's public names are the ones its own modules or the benchmark use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qtoken"
BENCHMARK = ROOT / "perfbench"


def referenced_names(path):
    """Every name ``path`` reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_reexported_name_is_used_by_another_module():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= referenced_names(path)
    assert sorted(exported - used) == []


def imports_qtoken(node):
    """Whether ``node`` holds an import of the qtoken package."""
    return any(
        isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "qtoken"
        or isinstance(n, ast.Import) and any(a.name.split(".")[0] == "qtoken" for a in n.names)
        for n in ast.walk(node)
    )


def attribute_reads(path, tree):
    """(path, attribute, line) of every attribute ``tree`` reads."""
    return {
        (path, node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_method_is_read_outside_its_own_body():
    """Each public method or property of a public class in the package is read
    as an attribute by the package or the benchmark, outside its own body.

    The benchmark imports qtoken inside the functions that use it, so only its
    module-level importers and those functions count: elsewhere a read such as
    ``thread.start`` is of the benchmark's own objects.
    """
    reads = set()
    for path in PACKAGE.glob("*.py"):
        reads |= attribute_reads(path, ast.parse(path.read_text(encoding="utf-8")))
    for path in BENCHMARK.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(imports_qtoken(n) for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))):
            scopes = [tree]
        else:
            scopes = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and imports_qtoken(n)]
        for scope in scopes:
            reads |= attribute_reads(path, scope)

    unread = []
    for path in PACKAGE.glob("*.py"):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                if not any(
                    name == fn.name and not (where == path and fn.lineno <= line <= fn.end_lineno)
                    for where, name, line in reads
                ):
                    unread.append(f"{path.stem}.{cls.name}.{fn.name}")
    assert sorted(unread) == []
