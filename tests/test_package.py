"""The package's public names, no definition that nothing reads, no
raise outside the errors.py taxonomy, and a cap on keyword defaults."""

import ast
import pathlib

import grouprune

SRC = pathlib.Path(grouprune.__file__).resolve().parent


def test_every_exported_name_resolves():
    assert len(grouprune.__all__) == len(set(grouprune.__all__))
    for name in grouprune.__all__:
        assert hasattr(grouprune, name), name


def _reads(node, modules: set[str]) -> set[str]:
    """Names a node reads: loaded names, and attributes loaded from one of
    the package modules it imports (engine.forward), so that text.split
    does not count as a read of a function named split."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
              and isinstance(n.value, ast.Name) and n.value.id in modules):
            names.add(n.attr)
    return names


def test_every_src_definition_is_read_in_src():
    """Every top-level def or class of the package is read somewhere in
    the package besides its own definition, or is exported in __all__;
    code that only tests call belongs with the tests."""
    defined = []   # (module, name, node)
    reads = []     # (top-level node, names it reads)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {a.asname or a.name for n in tree.body
                   if isinstance(n, ast.ImportFrom) and n.level == 1
                   and n.module is None for a in n.names}
        for node in tree.body:
            reads.append((node, _reads(node, modules)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name, node))
    unread = [f"{module}.{name}" for module, name, own in defined
              if name not in grouprune.__all__
              and not any(name in names for node, names in reads
                          if node is not own)]
    assert unread == []


def test_every_src_raise_is_an_errors_class():
    """Every raise in the package names a class defined in errors.py, so
    the CLI can map each fault to an exit code."""
    taxonomy = {n.name for n in ast.parse((SRC / "errors.py").read_text()).body
                if isinstance(n, ast.ClassDef)}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Raise):
                exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                if getattr(exc, "id", None) not in taxonomy:
                    outside.append(f"{path.name}:{n.lineno}")
    assert outside == []


# Raise only with a change that adds an option, and say why in CHANGES.md.
MAX_KEYWORD_DEFAULTS = 24


def test_keyword_defaults_stay_capped():
    """Function and lambda argument defaults in the package, counted with
    ast: each is an option a caller may leave out, and each fork it feeds
    needs its own test."""
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
                count += len(n.args.defaults) + sum(
                    d is not None for d in n.args.kw_defaults)
    assert count <= MAX_KEYWORD_DEFAULTS, count
