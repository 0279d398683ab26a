import argparse
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import tricap
from tricap import cli

# __main__ runs the CLI on import and version exports no __all__
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(tricap.__path__, "tricap.")
    if m.name not in ("tricap.__main__", "tricap.version")
)


@pytest.mark.parametrize("name", ["tricap", *MODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from tricap import *", namespace)
    assert set(tricap.__all__) <= namespace.keys()


def test_pyproject_states_the_package_version():
    # every report envelope carries tricap.__version__; pyproject.toml states it
    # a second time (a regex, since Python 3.10 has no tomllib)
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    stated = re.findall(r'^version = "([^"]*)"$', text, flags=re.M)
    assert stated == [tricap.__version__]


def test_readme_library_sketch_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("{")


# module -> the math functions it may call, all of them exact on integers
# and Fractions: increment_need applies ceil to a Fraction, and randomsel's
# g and h counts are binomials and factorials
EXACT_MODULES = {
    **dict.fromkeys(["energy.py", "spectrum.py", "structure.py"], {"ceil"}),
    **dict.fromkeys(["fourier.py", "bulk.py", "capset.py", "linalg.py", "gf3core.py"], set()),
    "randomsel.py": {"comb", "factorial"},
}


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_compute_no_float(name):
    # report-only floats belong to the CLI handler that prints them
    path = Path(tricap.__file__).with_name(name)
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=name)):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append(f"float constant {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append("the name float")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append("true division")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in EXACT_MODULES[name]):
            found.append(f"math.{node.attr}")
        else:
            continue
        found[-1] += f" on line {node.lineno}"
    assert found == []


# the modules that may call transform_point_set: the CLI handlers and the
# selftest criteria build one table per report and hand it to every
# statistic, energy chooses its backend from the set, and fourier owns it
TRANSFORM_CALLERS = {"cli.py", "selftest.py", "energy.py", "fourier.py"}


def test_statistics_read_the_table_their_caller_built():
    found = []
    for path in sorted(Path(tricap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if not isinstance(node, ast.Call) or path.name in TRANSFORM_CALLERS:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "transform_point_set":
                found.append(f"{path.name} line {node.lineno}")
    assert found == []


KNOBS = {"force", "soft"}


def _names(obj) -> set[str]:
    """Parameter names of a callable; for a class, of every method, and its attributes."""
    targets = [obj]
    names = set()
    if isinstance(obj, type):
        targets += [v for v in vars(obj).values() if callable(v)]
        names |= set(dir(obj))
    for target in targets:
        try:
            names |= set(inspect.signature(target).parameters)
        except (TypeError, ValueError):  # a builtin without a signature
            pass
    return names


def test_no_guard_has_a_lift():
    from test_cli import _leaf_names

    found = [name for name in tricap.__all__ if KNOBS & _names(getattr(tricap, name))]
    found += sorted(KNOBS & set(dir(tricap.GuardExceededError("what", 2, 1))))
    parser = cli._build_parser()
    for path in _leaf_names(parser):
        leaf = parser
        for key in path:
            leaf = next(a for a in leaf._actions if isinstance(a, argparse._SubParsersAction))
            leaf = leaf.choices[key]
        if "--force" in leaf._option_string_actions:
            found.append(" ".join(path))
    assert found == []
