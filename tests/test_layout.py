"""Every top-level function and class of src/ has a production caller.

A definition in src/dhym_ruled counts as used when it meets one of:
- src/dhym_ruled or perfbench refers to it, by name or as an attribute,
  outside its own definition (docstrings and comments are not references;
  neither is the re-export in dhym_ruled/__init__.py);
- it is a cli.cmd_*, which cli.main looks up by name in globals();
- it is one of the paper's named claims in PAPER_CLAIMS.
A function that only tests run belongs in tests/, beside the reference it
serves (tests/second_forms.py), even when the package exports it.

A profile (coupled.ProfilePoly) holds its solution and copies none of its
constants.

The independent numerics (oracle.py) import nothing of the package but its
errors, and no module imports a package module inside a function.
"""

import ast
from dataclasses import fields
from pathlib import Path

from dhym_ruled.coupled import ProfilePoly
from dhym_ruled.params import Problem

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dhym_ruled"

#: Paper claims with a public name and a test, which no pipeline calls.
PAPER_CLAIMS = {
    "reconstruct_s_of_tau",  # the log-norm coordinate s(tau) from the profile
    "conical_alpha",  # the coupling constant of a cone angle beta0
    "smooth_alpha",  # the coupling constant of the smooth solution
    "bfield_alpha",  # the coupling constant of a B-field class
    "jy_class",  # the class cot(theta) omega - F and its positivity
    "intersection_pairing",  # the intersection pairing of (1,1) classes
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(tree):
    """(name, top-level statement it lies in) of each name read in tree."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, stmt
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, stmt


def unused_definitions(package=PACKAGE, others=(ROOT / "perfbench",)):
    """'module.name' of each top-level def or class of package with no use."""
    trees = {path: _parse(path) for path in sorted(package.glob("*.py"))}
    for directory in others:
        trees.update((path, _parse(path)) for path in sorted(directory.glob("*.py")))
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for stmt in tree.body:
            if not isinstance(stmt, kinds):
                continue
            name = stmt.name
            if (
                name in PAPER_CLAIMS
                or (path.stem == "cli" and name.startswith("cmd_"))
                or any(n == name and owner is not stmt for n, owner in refs)
            ):
                continue
            unused.append(f"{path.stem}.{name}")
    return unused


def test_every_definition_in_src_has_a_production_caller():
    unused = unused_definitions()
    assert not unused, (
        "defined in src/ but used only by tests (move them into tests/): "
        + ", ".join(unused)
    )


def test_the_scan_reports_exactly_the_unused(tmp_path):
    (tmp_path / "__init__.py").write_text("from .m import exported\n")
    (tmp_path / "cli.py").write_text("def cmd_run(args):\n    return 0\n")
    (tmp_path / "m.py").write_text(
        "def exported():\n"
        "    return _helper() + Used.n\n"
        "def _helper():\n"
        "    return 1\n"
        "class Used:\n"
        "    n = 0\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def orphan():\n"
        '    """Named only in text: orphan, recursive."""\n'
        "# orphan()\n"
        "def reconstruct_s_of_tau(p):\n"
        "    return p\n"
    )
    # an export that nothing else reads is unused: the re-export is no use
    assert unused_definitions(tmp_path, others=()) == [
        "m.exported", "m.recursive", "m.orphan"]


def test_the_profile_copies_nothing_of_its_solution():
    """A profile reads its interval, C' and phase from ProfilePoly.sol, the
    posed Problem, so the two carry no field of the same name."""
    shared = {f.name for f in fields(ProfilePoly)} & {f.name for f in fields(Problem)}
    assert not shared, sorted(shared)


def _package_imports(tree):
    """The package module each import in tree names: '.x' for a relative
    import of x, 'dhym_ruled.x' for an absolute one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    yield "." * node.level + node.module
                else:
                    yield from ("." * node.level + a.name for a in node.names)
            elif node.module.split(".")[0] == "dhym_ruled":
                yield node.module
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "dhym_ruled")


def test_oracle_imports_only_the_errors():
    imports = set(_package_imports(_parse(PACKAGE / "oracle.py")))
    assert imports <= {".errors"}, sorted(imports)


def test_no_function_imports_a_package_module():
    """A cycle between modules is not hidden by a function-level import;
    a function may still import from the standard library."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.stem}.{node.name}: {m}"
                          for stmt in node.body for m in _package_imports(stmt)]
    assert not found, found


def test_the_import_scan_sees_every_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "from . import coupled\n"
        "from .errors import ValidationError\n"
        "import dhym_ruled.dhym\n"
        "import decimal\n"
        "def f():\n"
        "    from decimal import Decimal\n"
        "    from dhym_ruled.params import pose\n"
    )
    assert list(_package_imports(_parse(tmp_path / "m.py"))) == [
        ".coupled", ".errors", "dhym_ruled.dhym", "dhym_ruled.params"]
