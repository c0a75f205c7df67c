"""The package namespace and metadata: each declared once, in the modules and in psg/__init__.py."""

import importlib
import types
from pathlib import Path

import pytest

import psg

MODULES = ("grid", "models", "schemes", "steady_states", "diagnostics", "config", "io")


def test_public_names_are_the_modules_all():
    public = {name for name, value in vars(psg).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = set().union(*(importlib.import_module(f"psg.{module}").__all__ for module in MODULES))
    assert public == declared


@pytest.mark.filterwarnings("ignore")  # older setuptools call their [tool.setuptools] support beta
def test_pyproject_version_is_the_package_version():
    """The build reads the version from psg.__version__'s literal, without importing psg."""
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml", expand=True)
    assert config["project"]["version"] == psg.__version__
