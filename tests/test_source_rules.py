"""Source rules of the package, read off its syntax trees and pyproject.toml.

Each `src/elemop/*.py` is parsed once into `MODULES`; each test checks one
rule and fails listing every `path:line: what` that breaks it.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(ROOT.glob("src/elemop/*.py"))}


def _table(name: str) -> str:
    """The body of the [name] table of pyproject.toml: 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(rf"^\[{re.escape(name)}\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return table[1] if table else ""


def _none(bad: list[str]) -> None:
    if bad:
        pytest.fail("\n".join(bad), pytrace=False)


def _nodes(kind):
    for path, tree in MODULES.items():
        yield from ((path, node) for node in ast.walk(tree) if isinstance(node, kind))


def test_no_runtime_dependencies():
    # scalars are exact ints, so only scalars.py, for its Fraction views, imports fractions
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", _table("project"), re.M | re.S)
    deps = deps[1].strip() if deps else ""
    bad = [f"pyproject.toml: [project] dependencies = [{deps}]"] if deps else []
    allowed = sys.stdlib_module_names | {"elemop"}
    for path, node in _nodes((ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.ImportFrom) and node.level:
            continue
        for name in [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]:
            top = name.split(".")[0]
            if top not in allowed:
                bad.append(f"{path}:{node.lineno}: imports {name}")
            elif top == "fractions" and path.name != "scalars.py":
                bad.append(f"{path}:{node.lineno}: imports {name}; only scalars.py may")
    _none(bad)


def test_no_unused_imports():
    # a name listed in __all__ counts as read, so the re-exports of __init__.py pass
    bad = []
    for path, tree in MODULES.items():
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
            elif isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", None) for t in node.targets]:
                used |= set(ast.literal_eval(node.value))
        bad += [f"{path}:{line}: {name} is imported but unused"
                for name, line in sorted(imported.items()) if name not in used]
    _none(bad)


def test_no_private_imports_from_matrix_or_nilpotency():
    # the int-row kernels that several modules share live in _zi.py instead
    owners = {"matrix", "nilpotency", "elemop.matrix", "elemop.nilpotency"}
    _none([f"{path}:{node.lineno}: imports {alias.name} from {node.module}"
           for path, node in _nodes(ast.ImportFrom) if node.module in owners
           for alias in node.names if alias.name.startswith("_")])


def test_operators_are_decided_only_by_op_is_nilpotent():
    # operators.op_is_nilpotent is the one helper that decides an operator, so
    # outside operators.py no call hands a superoperator to is_nilpotent or _report
    _none([f"{path}:{call.lineno}: {name}({ast.unparse(arg)}); use op_is_nilpotent"
           for path, call in _nodes(ast.Call) if path.name != "operators.py"
           if (name := getattr(call.func, "id", getattr(call.func, "attr", None))) in ("is_nilpotent", "_report")
           for arg in call.args
           if isinstance(arg, ast.Call) and getattr(arg.func, "attr", None) == "superoperator"])


def test_the_cli_never_builds_a_superoperator():
    # `superop` writes each entry over its own products' denominators through
    # jsonio.superoperator_to_obj; a superoperator's form holds every entry over
    # the lcm of all of them, so the CLI decides operators only by op_is_nilpotent
    _none([f"{path}:{call.lineno}: {ast.unparse(call)}; use jsonio.superoperator_to_obj"
           for path, call in _nodes(ast.Call) if path.name == "cli.py"
           if getattr(call.func, "attr", None) == "superoperator"])


def test_the_cli_never_writes_a_computed_matrix_through_its_form():
    # `apply` writes op(X) through jsonio.apply_to_obj, each entry over its own
    # row and column scales; matrix_to_obj of a call's result, op(x) say, would
    # build the result's form over the common scale of every term first
    _none([f"{path}:{call.lineno}: {ast.unparse(call)}; use jsonio.apply_to_obj"
           for path, call in _nodes(ast.Call) if path.name == "cli.py"
           if getattr(call.func, "id", getattr(call.func, "attr", None)) == "matrix_to_obj"
           if any(isinstance(arg, ast.Call) for arg in call.args)])


def test_jsonio_only_spells_cells():
    # operators and matrix compute the cells (re, im, den) that jsonio writes,
    # so jsonio does no Z[i] arithmetic: it imports nothing from _zi and no gcd or lcm
    bad = []
    for path, node in _nodes((ast.Import, ast.ImportFrom)):
        if path.name == "jsonio.py":
            names = {a.name.split(".")[-1] for a in node.names}
            names.add((getattr(node, "module", None) or "").split(".")[-1])
            bad += [f"{path}:{node.lineno}: imports {name}; compute in operators or matrix"
                    for name in sorted(names & {"_zi", "gcd", "lcm"})]
    _none(bad)


def test_no_raw_reprs_in_parse_error_messages():
    # a ParseError message reaches stderr, so an outside value in it goes through
    # scalars._quoted, which abridges it, never through !r or repr()
    bad = []
    for path, call in _nodes(ast.Call):
        if getattr(call.func, "id", getattr(call.func, "attr", None)) != "ParseError":
            continue
        for node in (n for arg in call.args + call.keywords for n in ast.walk(arg)):
            if isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
                bad.append(f"{path}:{node.lineno}: !r in a ParseError message")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "repr":
                bad.append(f"{path}:{node.lineno}: repr() in a ParseError message")
    _none(bad)


def test_entry_points_resolve():
    # the tests run the package from src without installing it, so nothing else
    # imports the console scripts
    targets = re.findall(r'^([\w.-]+)\s*=\s*"([\w.]+):([\w.]+)"', _table("project.scripts"), re.M)
    bad = [] if targets else ["pyproject.toml: no [project.scripts] target"]
    for name, module, attr in targets:
        try:
            target = importlib.import_module(module)
            for part in attr.split("."):
                target = getattr(target, part)
        except (ImportError, AttributeError) as exc:
            bad.append(f"{name} = {module}:{attr}: {exc}")
            continue
        if not callable(target):
            bad.append(f"{name} = {module}:{attr} is not callable")
    _none(bad)
