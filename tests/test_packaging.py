"""The build metadata in pyproject.toml points at code that exists.

The wheel itself is not built here (that needs the ``wheel`` package
and writes outside the tree); this checks what the metadata promises:
a ``src`` layout, no runtime dependencies, a version read from the
package, and a ``repro`` console script that resolves to the CLI.
"""

import importlib
import pathlib
import tomllib

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _pyproject():
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def test_pyproject_declares_the_cli_entry_point_and_package_version():
    config = _pyproject()
    project = config["project"]
    assert project["name"] == "repro"
    assert project["dependencies"] == []
    assert config["build-system"]["build-backend"] == "setuptools.build_meta"

    module_name, _, attr = project["scripts"]["repro"].partition(":")
    assert callable(getattr(importlib.import_module(module_name), attr))

    assert project["dynamic"] == ["version"]
    version_attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    module_name, _, attr = version_attr.rpartition(".")
    assert getattr(importlib.import_module(module_name), attr) == repro.__version__

    where = config["tool"]["setuptools"]["packages"]["find"]["where"]
    assert where == ["src"]
    assert (REPO_ROOT / "src" / "repro" / "__init__.py").is_file()
