import tracemalloc

import numpy as np
import pytest

from psg import Field, TorusGrid


def random_smooth_values(grid: TorusGrid, rng: np.random.Generator,
                         n_modes: int = 8, decay: float = 0.35,
                         target_linf: float = np.pi) -> np.ndarray:
    """Random low-frequency trigonometric polynomial scaled to a target sup-norm."""
    if grid.dim == 1:
        (x,) = grid.coords()
        u = np.zeros_like(x)
        for m in range(n_modes):
            amp = np.exp(-decay * m**2)
            u += amp * (rng.standard_normal() * np.cos(m * x) + rng.standard_normal() * np.sin(m * x))
    else:
        x, y = grid.coords()
        u = np.zeros_like(x)
        for mx in range(4):
            for my in range(4):
                amp = np.exp(-decay * (mx**2 + my**2))
                u += amp * (
                    rng.standard_normal() * np.cos(mx * x) * np.cos(my * y)
                    + rng.standard_normal() * np.sin(mx * x) * np.sin(my * y)
                    + rng.standard_normal() * np.cos(mx * x) * np.sin(my * y)
                )
    return u * (target_linf / np.max(np.abs(u)))


def random_smooth_field(grid, rng, **kwargs) -> Field:
    return Field(grid, random_smooth_values(grid, rng, **kwargs))


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
