"""The package namespace and metadata: each declared once, in the modules and in psg/__init__.py."""

import dataclasses
import enum
import importlib
import inspect
import os
import re
import subprocess
import sys
import tempfile
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


_SG, _IMEX1, _BDF2 = psg.ModelKind.SINE_GORDON, psg.SchemeKind.IMEX1, psg.SchemeKind.BDF2
_WAVE = psg.Field.from_function(psg.TorusGrid(1, 8), np.sin)
_WAVE2 = psg.Field.from_function(psg.TorusGrid(2, 8), lambda x, y: np.sin(x) * np.cos(2 * y))
_MODEL = psg.ModelSpec(_SG, 0.5)


def _config(**fields):
    """A 1D sine-Gordon imex1 config on 8 points, two steps of 0.5 at kappa 0.3, with fields changed."""
    return psg.ExperimentConfig(**{**dict(model_kind=_SG, scheme=_IMEX1, dim=1, kappa=0.3, tau=0.5, n_per_axis=8,
                                          n_steps=2), **fields})


def _fit(tau_base=0.5, levels=3, t_final=1.0):
    return psg.convergence_order(_config(n_steps=None, t_final=1.0), _IMEX1, tau_base, levels, t_final)


def _stepped(tau=0.5, n_steps=3):
    """run_steps' fields and records, each field copied before the next step overwrites it."""
    return [(u.values.copy(), record) for u, record in psg.run_steps(_WAVE, _MODEL, _BDF2, tau, n_steps)]


def _params(kappa=0.3, beta=2.0, gamma=0.7):
    params = psg.GeneralModelParams(kappa, beta, gamma)
    return params, psg.rescale_general_to_standard(params)


def _case(C=0.3, kappa=0.5):
    case = psg.SteadyStateCase(psg.Regime.PERIODIC, C, kappa)
    return case, case.amplitude


def _snapshot(t=0.25, kappa=0.5):
    """The bytes write_snapshot writes for _WAVE at t and kappa."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wave.psg"
        psg.write_snapshot(path, _WAVE, t, kappa)
        return path.read_bytes()


# Every public real number: its callable, its name, a valid value x and a call that passes the given value there and
# well-formed values everywhere else. Each value is cast to a float once, in grid's scalar rule.
SCALAR_ARGUMENTS = [
    (psg.helmholtz_solve, "kappa", 0.1, lambda v: psg.helmholtz_solve(_WAVE, v, 1.5, 0.3)),
    (psg.helmholtz_solve, "a", 1.1, lambda v: psg.helmholtz_solve(_WAVE, 0.3, v, 0.3)),
    (psg.helmholtz_solve, "b", 0.1, lambda v: psg.helmholtz_solve(_WAVE, 0.3, 1.5, v)),
    (psg.ModelSpec, "kappa", 0.1, lambda v: psg.ModelSpec(_SG, v)),
    (psg.GeneralModelParams, "kappa", 0.1, lambda v: _params(kappa=v)),
    (psg.GeneralModelParams, "beta", 0.1, lambda v: _params(beta=v)),
    (psg.GeneralModelParams, "gamma", 0.1, lambda v: _params(gamma=v)),
    (psg.modified_energy, "tau", 0.1, lambda v: psg.modified_energy(_MODEL, _WAVE, psg.Field.zeros(_WAVE.grid), v)),
    (psg.run, "tau", 0.1, lambda v: psg.run(_WAVE, _MODEL, _IMEX1, v, 3)),
    (psg.run_steps, "tau", 0.1, lambda v: _stepped(tau=v)),
    (psg.classify, "C", 0.1, psg.classify),
    (psg.first_integral, "kappa", 0.1, lambda v: psg.first_integral(_RAMP, _RAMP, v)),
    (psg.kink_eval, "kappa", 0.1, lambda v: psg.kink_eval(v, 1, 0.2, _RAMP)),
    (psg.kink_eval, "sign", -1.0, lambda v: psg.kink_eval(0.5, v, 0.2, _RAMP)),
    (psg.kink_eval, "c", 0.1, lambda v: psg.kink_eval(0.5, 1, v, _RAMP)),
    (psg.kink_derivative, "kappa", 0.1, lambda v: psg.kink_derivative(v, 1, 0.2, _RAMP)),
    (psg.kink_derivative, "sign", -1.0, lambda v: psg.kink_derivative(0.5, v, 0.2, _RAMP)),
    (psg.kink_derivative, "c", 0.1, lambda v: psg.kink_derivative(0.5, 1, v, _RAMP)),
    (psg.SteadyStateCase, "C", 0.1, lambda v: _case(C=v)),
    (psg.SteadyStateCase, "kappa", 0.1, lambda v: _case(kappa=v)),
    (psg.build_periodic_orbit, "C", 0.1, lambda v: psg.build_periodic_orbit(v, 0.5, 9)),
    (psg.build_periodic_orbit, "kappa", 0.1, lambda v: psg.build_periodic_orbit(0.3, v, 9)),
    (psg.residual, "kappa", 0.1, lambda v: psg.residual(_RAMP, v, spacing=0.2)),
    (psg.residual, "spacing", 0.1, lambda v: psg.residual(_RAMP, 0.5, spacing=v)),
    (psg.convergence_order, "tau_base", 0.5, lambda v: _fit(tau_base=v)),
    (psg.convergence_order, "t_final", 1.0, lambda v: _fit(t_final=v)),
    (psg.ExperimentConfig, "kappa", 0.1, lambda v: _config(kappa=v)),
    (psg.ExperimentConfig, "tau", 0.1, lambda v: _config(tau=v)),
    (psg.ExperimentConfig, "t_final", 0.1, lambda v: _config(n_steps=None, t_final=v)),
    (psg.write_snapshot, "t", 0.1, lambda v: _snapshot(t=v)),
    (psg.write_snapshot, "kappa", 0.1, lambda v: _snapshot(kappa=v)),
]
# Every public count, as SCALAR_ARGUMENTS: an integer, numpy's included, checked once in grid's count rule.
COUNT_ARGUMENTS = [
    (psg.TorusGrid, "dim", 2, lambda v: psg.TorusGrid(v, 8)),
    (psg.TorusGrid, "n_per_axis", 8, lambda v: psg.TorusGrid(1, v)),
    (psg.first_derivative, "axis", 1, lambda v: psg.first_derivative(_WAVE2, v)),
    (psg.run, "n_steps", 3, lambda v: psg.run(_WAVE, _MODEL, _IMEX1, 0.5, v)),
    (psg.run_steps, "n_steps", 3, lambda v: _stepped(n_steps=v)),
    (psg.build_periodic_orbit, "samples", 9, lambda v: psg.build_periodic_orbit(0.3, 0.5, v)),
    (psg.convergence_order, "levels", 3, lambda v: _fit(levels=v)),
    (psg.ExperimentConfig, "dim", 1, lambda v: _config(dim=v)),
    (psg.ExperimentConfig, "n_per_axis", 8, lambda v: _config(n_per_axis=v)),
    (psg.ExperimentConfig, "n_steps", 2, lambda v: _config(n_steps=v)),
]
# None leaves these out, which their callables answer with a message of their own
NONE_MEANS_ABSENT = {("ExperimentConfig", "t_final"), ("ExperimentConfig", "n_steps"), ("residual", "spacing")}


def _bits(result):
    """result's exact content: each number with its type, each array with its dtype, shape and bytes."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if dataclasses.is_dataclass(result):
        return type(result), _bits([getattr(result, field.name) for field in dataclasses.fields(result)])
    if isinstance(result, (list, tuple)):
        return type(result), tuple(map(_bits, result))
    return type(result), repr(result)


def _number_cases():
    for rows, is_count in ((SCALAR_ARGUMENTS, False), (COUNT_ARGUMENTS, True)):
        for fn, arg, x, call in rows:
            bad = {"text": str(x), "none": None, "list": [x]}
            bad.update({"float": x + 0.5, "integral-float": float(x), "bool": True} if is_count
                       else {"complex": complex(x)})
            if (fn.__name__, arg) in NONE_MEANS_ABSENT:
                del bad["none"]
            for case, value in bad.items():
                if is_count:
                    message = f"{arg} must be an integer, got {value!r}"
                elif case == "list":
                    message = f"{arg} must be a single number, got shape (1,)"
                else:
                    message = f"{arg} must be real, got dtype {np.asarray(value).dtype}"
                yield pytest.param(call, value, message, id=f"{fn.__name__}-{arg}-{case}")


@pytest.mark.parametrize("call, value, message", _number_cases())
def test_public_number_contract(call, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def _outcome(call, value):
    """What call(value) raises (its type and message), or the exact content of what it returns."""
    try:
        return _bits(call(value))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fn, arg, x, call", [pytest.param(*row, id=f"{row[0].__name__}-{row[1]}")
                                              for row in SCALAR_ARGUMENTS])
@pytest.mark.parametrize("sign", [1, -1], ids=["huge-int", "huge-negative-int"])
def test_huge_int_scalar_is_the_inf_it_overflows_to(fn, arg, x, call, sign):
    """A Python int too large for a float meets the range rule as +-inf, not the dtype rule as an object array."""
    outcome = _outcome(call, sign * 10**400)
    assert outcome == _outcome(call, sign * float("inf"))
    assert "dtype" not in repr(outcome)


@pytest.mark.parametrize("fn, arg, x, call", [pytest.param(*row, id=f"{row[0].__name__}-{row[1]}")
                                              for row in SCALAR_ARGUMENTS])
def test_float32_scalar_gives_float64_arithmetic(fn, arg, x, call):
    """A numpy float32 is the float it holds: no float32 arithmetic, no float32 in what psg returns or stores."""
    assert _bits(call(np.float32(x))) == _bits(call(float(np.float32(x))))


@pytest.mark.parametrize("fn, arg, x, call", [pytest.param(*row, id=f"{row[0].__name__}-{row[1]}")
                                              for row in COUNT_ARGUMENTS])
def test_numpy_integer_count_is_its_int(fn, arg, x, call):
    for value in (np.int64(x), np.int32(x), np.uint8(x)):
        assert _bits(call(value)) == _bits(call(x))


# Each public callable's parameters that are not numbers: grids, fields, models, enums, configs, paths, record
# streams and residual's periodic flag. A public parameter that is in no table and not here fails
# test_every_public_parameter_is_classified until it is classified.
NOT_NUMBERS = {
    "Field": "grid",
    "laplacian": "f",
    "first_derivative": "f",
    "helmholtz_solve": "rhs",
    "integrate": "f",
    "ModelSpec": "kind",
    "rescale_general_to_standard": "p",
    "nonlinearity": "kind u",
    "potential_values": "kind",
    "energy": "model u",
    "modified_energy": "model u_curr u_prev",
    "run": "u0 model scheme",
    "run_steps": "u0 model scheme",
    "SteadyStateCase": "regime",
    "reflect_extend": "mode",
    "residual": "periodic",
    "monitor_reports": "records",
    "stability_sweep": "config",
    "convergence_order": "config scheme",
    "ExperimentConfig": "model_kind scheme init",
    "initial_field": "config",
    "write_snapshot": "path field",
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
    """Each parameter of each public callable is in exactly one of ARRAY_ARGUMENTS, SCALAR_ARGUMENTS,
    COUNT_ARGUMENTS and NOT_NUMBERS, and every entry names one.

    Exceptions (which take a message) and enums (which look up a member) are not walked."""
    walked = set()
    for name, value in vars(psg).items():
        if name.startswith("_") or not callable(value) or name in BUILT_BY_PSG:
            continue
        if isinstance(value, type) and issubclass(value, (BaseException, enum.Enum)):
            continue
        walked |= {(name, param) for param in inspect.signature(value).parameters}
    tables = [{(fn.__name__, arg) for fn, arg, *_ in rows}
              for rows in (ARRAY_ARGUMENTS, SCALAR_ARGUMENTS, COUNT_ARGUMENTS)]
    tables.append({(name, param) for name, params in NOT_NUMBERS.items() for param in params.split()})
    classified = set().union(*tables)
    assert sum(map(len, tables)) == len(classified)  # no parameter in two of them
    assert sorted(walked - classified) == []  # unclassified parameters
    assert sorted(classified - walked) == []  # entries naming no public parameter
    assert NONE_MEANS_ABSENT <= classified


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
