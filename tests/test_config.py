"""Experiment configuration: run length and initial fields."""

import numpy as np
import pytest

from psg import ExperimentConfig, Field, ModelKind, SchemeKind, TorusGrid, initial_field, write_snapshot


def config(**overrides):
    base = dict(model_kind=ModelKind.SINE_GORDON, scheme=SchemeKind.IMEX1, dim=1, kappa=0.1, tau=0.1,
                n_per_axis=16, t_final=1.0, init="pi_sin")
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("t_final,n_steps", [(1.0, 10), (None, None)], ids=["both", "neither"])
def test_one_run_length_required(t_final, n_steps):
    with pytest.raises(ValueError, match="^exactly one of t_final / n_steps must be given$"):
        config(t_final=t_final, n_steps=n_steps)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)], ids=["points", "dimension"])
def test_snapshot_on_another_grid_rejected(dim, n, tmp_path):
    path = tmp_path / "u0.psg"
    write_snapshot(path, Field.zeros(TorusGrid(dim, n)), 0.0, 0.1)
    with pytest.raises(ValueError, match=f"^snapshot grid {dim}D n={n} does not match run grid 1D n=16$"):
        initial_field(config(init=str(path)))
    assert np.array_equal(initial_field(config(init=str(path), dim=dim, n_per_axis=n)).values,
                          np.zeros((n,) * dim))
