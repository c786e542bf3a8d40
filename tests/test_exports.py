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


def qtoken_scopes(tree):
    """The benchmark module itself if it imports qtoken at module level, else
    its functions that import it."""
    if any(imports_qtoken(n) for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))):
        return [tree]
    return [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and imports_qtoken(n)]


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
        for scope in qtoken_scopes(ast.parse(path.read_text(encoding="utf-8"))):
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


def name_reads(path, tree):
    """(path, name, line) of every name ``tree`` reads, bare or as an attribute."""
    return {
        (path, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def string_names(path, tree):
    """(path, part, line) of every dotted part of every string constant in
    ``tree``: the benchmark's tracer pins functions by name, as in
    ``"core.swap_test"``."""
    return {
        (path, part, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    }


def test_every_public_function_is_read_outside_its_own_body():
    """Each public module-level function of the package is read by the
    package or the benchmark outside its own body, as a name, an attribute
    or, in the benchmark, a string. Benchmark names and attributes count in
    the scopes that import qtoken, as for methods; strings count anywhere."""
    reads = set()
    for path in PACKAGE.glob("*.py"):
        reads |= name_reads(path, ast.parse(path.read_text(encoding="utf-8")))
    for path in BENCHMARK.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads |= string_names(path, tree)
        for scope in qtoken_scopes(tree):
            reads |= name_reads(path, scope)

    unread = []
    for path in PACKAGE.glob("*.py"):
        for fn in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            if not any(
                name == fn.name and not (where == path and fn.lineno <= line <= fn.end_lineno)
                for where, name, line in reads
            ):
                unread.append(f"{path.stem}.{fn.name}")
    assert sorted(unread) == []
