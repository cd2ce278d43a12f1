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

params.pose is the one place a class is classified and phased: no other
function of src/ calls the functions that do it.

cli._key_lines is the one writer of the CLI's ``key = repr(value)`` lines,
which cli.parse_descriptor reads back; only cmd_check writes its own.
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


#: The stages of params.pose, which only pose calls.
POSE_STAGES = {"phase_constant", "stability_margin", "classify"}


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


def calls_outside_pose(package=PACKAGE):
    """'module.function: name' of each call of a POSE_STAGES name, by name or
    as an attribute, that does not lie in params.pose."""
    found = []
    for path in sorted(package.glob("*.py")):
        for stmt in _parse(path).body:
            owner = f"{path.stem}.{getattr(stmt, 'name', '<module>')}"
            if owner == "params.pose":
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    if name in POSE_STAGES:
                        found.append(f"{owner}: {name}")
    return found


def test_only_pose_classifies_and_phases_a_class():
    found = calls_outside_pose()
    assert not found, found


def test_the_pose_scan_sees_every_call(tmp_path):
    (tmp_path / "params.py").write_text(
        "def pose(s, b):\n"
        "    return phase_constant(b), classify(stability_margin(s, b))\n"
        "def jy_class(s, b):\n"
        "    return phase_constant(b)\n"
    )
    (tmp_path / "cli.py").write_text(
        "from .params import classify, phase_constant  # noqa: F401\n"
        "from . import params\n"
        "MARGIN = params.stability_margin(1, 2)\n"
        "def check(m):\n"
        "    return [params.classify(m) for _ in ()]\n"
    )
    assert calls_outside_pose(tmp_path) == [
        "cli.<module>: stability_margin", "cli.check: classify",
        "params.jy_class: phase_constant"]


#: The functions of cli.py that may format a ``key = repr(value)`` line:
#: the writer, and cmd_check, whose bare class name (stability_class =
#: Stable) is no repr and is read as it is by perfbench/checks._check.
KEY_LINE_WRITERS = {"_key_lines", "cmd_check"}


def key_lines_outside_writer(path=PACKAGE / "cli.py"):
    """'owner' of each f-string in path, outside KEY_LINE_WRITERS, that
    formats a key = repr(value) line: text ending in " = ", then a !r field
    that ends the string or a line.  A message such as ``k = {v!r} > {b!r}``
    is not such a line."""
    found = []
    for stmt in _parse(path).body:
        owner = getattr(stmt, "name", "<module>")
        if owner in KEY_LINE_WRITERS:
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.JoinedStr):
                continue
            parts = [*node.values, None]
            for before, field, after in zip(parts, parts[1:], parts[2:]):
                if (isinstance(before, ast.Constant) and before.value.endswith(" = ")
                        and isinstance(field, ast.FormattedValue)
                        and field.conversion == ord("r")
                        and (after is None or isinstance(after, ast.Constant)
                             and after.value.startswith("\n"))):
                    found.append(owner)
    return found


def test_only_the_writer_formats_key_lines():
    found = key_lines_outside_writer()
    assert not found, found


def test_the_key_line_scan_sees_every_form(tmp_path):
    # a cmd_tke that formats its own lines, and the other line shapes of cli.py
    (tmp_path / "cli.py").write_text(
        "def cmd_tke(args):\n"
        "    a = analyze(args)\n"
        "    lines = [\n"
        '        f"gamma = {a.gamma!r}",\n'
        '        f"condition_residual = {a.condition_residual!r}",\n'
        "    ]\n"
        '    return "\\n".join(lines) + "\\n"\n'
        "def cmd_figure2(b):\n"
        '    return f"# beta_bar = {b!r}\\nbeta,H\\n"\n'
        "def _verdict(k, v, b):\n"
        '    return f"residual suite failed: {k} = {v!r} > {b!r}"\n'
        "def cmd_limits(a, e):\n"
        '    return f"{a!r},{e!r}\\n"\n'
        "def cmd_check(m):\n"
        '    return f"stability_margin = {m!r}"\n'
        "def _key_lines(pairs):\n"
        '    return "".join([f"{k} = {v!r}\\n" for k, v in pairs])\n'
    )
    assert key_lines_outside_writer(tmp_path / "cli.py") == [
        "cmd_tke", "cmd_tke", "cmd_figure2"]
