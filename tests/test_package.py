"""The package namespace and metadata: each declared once, in the modules and in psg/__init__.py."""

import enum
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import psg

MODULES = ("grid", "models", "schemes", "steady_states", "diagnostics", "config", "io")

_RAMP, _FLAT = np.linspace(0.1, 0.5, 6), np.full(6, 0.3)  # six samples: well-formed for every call below
_SWEEP = psg.ExperimentConfig(psg.ModelKind.SINE_GORDON, psg.SchemeKind.IMEX1, 1, 0.1, 0.1, 16, n_steps=2)

# Every public array argument: its callable, its name, the number of dimensions it must have (None: any shape,
# pointwise), and a call that passes the given value there and well-formed values everywhere else.
ARRAY_ARGUMENTS = [
    (psg.Field, "values", None, lambda v: psg.Field(psg.TorusGrid(1, 6), v)),
    (psg.potential_values, "u_samples", None, lambda v: psg.potential_values(psg.ModelKind.SINE_GORDON, v)),
    (psg.first_integral, "u", None, lambda v: psg.first_integral(v, _RAMP, 1.0)),
    (psg.first_integral, "du", None, lambda v: psg.first_integral(_RAMP, v, 1.0)),
    (psg.kink_eval, "x", None, lambda v: psg.kink_eval(0.5, 1, 0.0, v)),
    (psg.kink_derivative, "x", None, lambda v: psg.kink_derivative(0.5, 1, 0.0, v)),
    (psg.reflect_extend, "x", 1, lambda v: psg.reflect_extend(v, _FLAT, psg.Reflection.EVEN)),
    (psg.reflect_extend, "u", 1, lambda v: psg.reflect_extend(_RAMP, v, psg.Reflection.EVEN)),
    (psg.residual, "u", 1, lambda v: psg.residual(v, 0.5, spacing=0.1)),
    (psg.fit_order, "taus", 1, lambda v: psg.fit_order(v, _RAMP)),
    (psg.fit_order, "errors", 1, lambda v: psg.fit_order(_RAMP, v)),
    (psg.stability_sweep, "tau_values", 1, lambda v: psg.stability_sweep(_SWEEP, v)),
    (psg.write_profile_csv, "x", 1, lambda v: psg.write_profile_csv(os.devnull, v, _RAMP)),
    (psg.write_profile_csv, "u", 1, lambda v: psg.write_profile_csv(os.devnull, _RAMP, v)),
]
# dtypes a float64 cast would mangle: it drops imaginary parts, turns None into NaN and parses text
BAD_DTYPES = {"complex": _RAMP + 1j, "complex-list": list(_RAMP + 1j), "object": np.full(6, None),
              "text": _RAMP.astype(str)}
BAD_SHAPES = {"0d": np.float64(0.3), "2d": np.tile(_RAMP, (2, 1)), "empty": []}  # where 1D is required


def _contract_cases():
    for fn, arg, ndim, call in ARRAY_ARGUMENTS:
        for case, value in BAD_DTYPES.items():
            message = f"{arg} must be real, got dtype {np.asarray(value).dtype}"
            yield pytest.param(call, value, message, id=f"{fn.__name__}-{arg}-{case}")
        for case, value in BAD_SHAPES.items() if ndim else ():
            message = f"{arg} must be a nonempty {ndim}D sequence, got shape {np.shape(value)}"
            yield pytest.param(call, value, message, id=f"{fn.__name__}-{arg}-{case}")
    # a Field's values take residual's rule as a plain array's do
    yield pytest.param(lambda v: psg.residual(v, 0.5), psg.Field.zeros(psg.TorusGrid(2, 8)),
                       "u must be a nonempty 1D sequence, got shape (8, 8)", id="residual-u-2d-field")


@pytest.mark.parametrize("call, value, message", _contract_cases())
def test_public_array_contract(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


# Each public callable's parameters that take no array. A public parameter that is neither here nor in
# ARRAY_ARGUMENTS fails test_every_public_parameter_is_classified until it is listed in one of them.
NON_ARRAY = {
    "TorusGrid": "dim n_per_axis",
    "Field": "grid",
    "laplacian": "f",
    "first_derivative": "f axis",
    "helmholtz_solve": "rhs kappa a b",
    "integrate": "f",
    "ModelSpec": "kind kappa",
    "GeneralModelParams": "kappa beta gamma",
    "rescale_general_to_standard": "p",
    "nonlinearity": "kind u",
    "potential_values": "kind",
    "energy": "model u",
    "modified_energy": "model u_curr u_prev tau",
    "run": "u0 model scheme tau n_steps",
    "run_steps": "u0 model scheme tau n_steps",
    "classify": "C",
    "first_integral": "kappa",
    "kink_eval": "kappa sign c",
    "kink_derivative": "kappa sign c",
    "SteadyStateCase": "regime C kappa",
    "build_periodic_orbit": "C kappa samples",
    "reflect_extend": "mode",
    "residual": "kappa spacing periodic",
    "monitor_reports": "records",
    "stability_sweep": "config",
    "convergence_order": "config scheme tau_base levels t_final",
    "ExperimentConfig": "model_kind scheme dim kappa tau n_per_axis t_final n_steps init",
    "initial_field": "config",
    "write_snapshot": "path field t kappa",
    "read_snapshot": "path",
    "write_heatmap": "field path",
    "series_row": "r",
    "write_series_csv": "path records",
    "write_sweep_csv": "path sweep",
    "write_profile_csv": "path",
    "emit_potential_table": "path",
}
# result types whose fields psg fills and callers read: their arrays come from psg, not from a caller
BUILT_BY_PSG = {"PeriodicOrbit", "SweepResult", "StepRecord", "MonitorReport", "MonitorReports", "StandardForm"}


def test_every_public_parameter_is_classified():
    """Each parameter of each public callable is an ARRAY_ARGUMENTS row or listed in NON_ARRAY, and no more.

    Exceptions (which take a message) and enums (which look up a member) are not walked."""
    walked = set()
    for name, value in vars(psg).items():
        if name.startswith("_") or not callable(value) or name in BUILT_BY_PSG:
            continue
        if isinstance(value, type) and issubclass(value, (BaseException, enum.Enum)):
            continue
        walked |= {(name, param) for param in inspect.signature(value).parameters}
    arrays = {(fn.__name__, arg) for fn, arg, _, _ in ARRAY_ARGUMENTS}
    listed = {(name, param) for name, params in NON_ARRAY.items() for param in params.split()}
    assert not arrays & listed
    assert sorted(walked - arrays - listed) == []  # unclassified parameters
    assert sorted((arrays | listed) - walked) == []  # entries naming no public parameter


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


def test_cli_import_loads_no_executor_or_logging():
    """psg's threads are plain threading.Threads, so a fresh `import psg.cli` loads neither module."""
    src = str(Path(psg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    check = "import sys, psg.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=60, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
