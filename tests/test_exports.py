import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import tricap

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
