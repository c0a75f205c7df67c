"""Independent numpy reference for the seeded workloads.

Usage: python3 perfbench/oracle.py <workload> <seed>

Prints one JSON object with the values the harness expects psg to
produce on the inputs that perfbench/inputs.py generates from the seed.
It imports nothing from psg. Time stepping works on raw (batched) arrays
and energies use Parseval on the spectrum the implicit solve already
holds (rfft weights 1/2/1, Nyquist mode zeroed as psg's first_derivative
does), so its results match psg to roundoff but not bit for bit.

It runs in its own process so that its arrays do not count towards the
workload process's peak resident memory.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import inputs

ENERGY_SLACK = 1e-10   # psg.energy_monitor's default relative slack
MAXP_SLACK = 1e-12     # psg.max_principle_monitor's default slack


def _spectral_tables(dim: int, n: int):
    kr = np.fft.rfftfreq(n) * n
    kr_z = kr.copy()
    kr_z[-1] = 0.0
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = weights[-1] = 1.0
    if dim == 1:
        return kr**2, kr_z**2, weights
    k = np.fft.fftfreq(n) * n
    k_z = k.copy()
    k_z[n // 2] = 0.0
    k2 = (k**2)[:, None] + (kr**2)[None, :]
    grad2 = (k_z**2)[:, None] + (kr_z**2)[None, :]
    return k2, grad2, np.broadcast_to(weights, k2.shape)


def _grad_sum(spec, grad2, weights, axes):
    """Sum over the grid of |grad u|^2, by Parseval from u's unnormalised rfftn."""
    return np.sum(weights * grad2 * (spec.real**2 + spec.imag**2), axis=axes)


def field_energy(u: np.ndarray, kappa: float) -> float:
    """E(u) = integral of kappa^2/2 |grad u|^2 + cos(u) for one field."""
    n = u.shape[0]
    _, grad2, weights = _spectral_tables(u.ndim, n)
    cell = (2.0 * math.pi / n) ** u.ndim
    grad = _grad_sum(np.fft.rfftn(u), grad2, weights, None)
    return float(0.5 * kappa**2 * cell / u.size * grad + cell * np.sum(np.cos(u)))


def evolve(u0: np.ndarray, kappa, scheme: str, tau: float, steps: int, record: bool = True):
    """Advance a batch u0[b] (leading axis) with per-member kappa[b].

    Returns the final batch and, when record is set, per-step arrays
    (energy, modified_energy, linf) of shape (steps, batch) for steps 1..steps.
    """
    dim = u0.ndim - 1
    n = u0.shape[-1]
    shape = u0.shape[1:]
    axes = tuple(range(1, dim + 1))
    k2, grad2, weights = _spectral_tables(dim, n)
    kap2 = np.asarray(kappa, dtype=np.float64).reshape((-1,) + (1,) * dim) ** 2
    mult = 1.0 / ((1.0 if scheme == "imex1" else 1.5) + tau * kap2 * k2)
    kick = 1.0 / (1.0 + tau * kap2 * k2)
    cell = (2.0 * math.pi / n) ** dim
    grad_factor = 0.5 * kap2.reshape(-1) * cell / n**dim

    series = ([], [], [])

    def emit(u, prev, spec):
        grad = grad_factor * _grad_sum(spec, grad2, weights, axes)
        e = grad + cell * np.sum(np.cos(u), axis=axes)
        series[0].append(e)
        series[1].append(e + cell * np.sum((u - prev) ** 2, axis=axes) / (4.0 * tau))
        series[2].append(np.max(np.abs(u), axis=axes))

    prev, f_prev = u0, np.sin(u0)
    spec = np.fft.rfftn(u0 + tau * f_prev, axes=axes) * kick
    u = np.fft.irfftn(spec, s=shape, axes=axes)
    if record:
        emit(u, prev, spec)
    for _ in range(steps - 1):
        f = np.sin(u)
        if scheme == "imex1":
            rhs = u + tau * f
        else:
            rhs = 2.0 * u - 0.5 * prev + tau * (2.0 * f - f_prev)
        spec = np.fft.rfftn(rhs, axes=axes) * mult
        prev, f_prev, u = u, f, np.fft.irfftn(spec, s=shape, axes=axes)
        if record:
            emit(u, prev, spec)
    if not record:
        return u, None
    return u, tuple(np.array(s) for s in series)


def _energy_excess(values: np.ndarray) -> np.ndarray:
    prev = values[:-1]
    return np.max(values[1:] - prev - ENERGY_SLACK * (1.0 + np.abs(prev)), axis=0)


def _outcomes(series) -> list[dict]:
    energy, modified, linf = series
    e_exc, m_exc = _energy_excess(energy), _energy_excess(modified)
    p_exc = np.max(linf - (math.pi + MAXP_SLACK), axis=0)
    return [
        {"final_energy": float(energy[-1, b]), "energy_excess": float(e_exc[b]),
         "modified_excess": float(m_exc[b]), "maxp_excess": float(p_exc[b])}
        for b in range(energy.shape[1])
    ]


def sweep1d(seed: int) -> dict:
    data = inputs.sweep1d_data(seed)
    u0 = np.stack([u for u, _ in data])
    kappa = np.array([k for _, k in data])
    by_member = {}
    for scheme, taus in inputs.SWEEP1D_TAUS.items():
        for tau in taus:
            _, series = evolve(u0, kappa, scheme, tau, inputs.SWEEP1D_STEPS)
            for i, outcome in enumerate(_outcomes(series)):
                by_member[(i, scheme, tau)] = outcome
    # Member order matches the harness: dataset, then scheme, then tau.
    members = [by_member[(i, scheme, tau)] for i in range(len(data))
               for scheme, taus in inputs.SWEEP1D_TAUS.items() for tau in taus]
    return {"members": members}


def sweep2d(seed: int) -> dict:
    u0 = inputs.sweep2d_data(seed)[None]
    cfg = inputs.SWEEP2D
    members = []
    for tau in cfg["taus"]:
        _, series = evolve(u0, [cfg["kappa"]], cfg["scheme"], tau, cfg["steps"])
        members += _outcomes(series)
    return {"members": members}


def converge2d(seed: int) -> dict:
    u0 = inputs.converge2d_data(seed)[None]
    cfg = inputs.CONVERGE2D
    taus, tau_ref = inputs.convergence_taus(cfg["tau_base"], cfg["levels"])
    slopes = {}
    for scheme in cfg["schemes"]:
        def final(tau):
            return evolve(u0, [cfg["kappa"]], scheme, tau, round(cfg["t_final"] / tau), record=False)[0]
        u_ref = final(tau_ref)
        errors = [float(np.max(np.abs(final(tau) - u_ref))) for tau in taus]
        slopes[scheme] = float(np.polyfit(np.log(taus), np.log(errors), 1)[0])
    return {"slopes": slopes}


ORACLES = {"sweep1d": sweep1d, "sweep2d": sweep2d, "converge2d": converge2d}


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ORACLES:
        sys.exit(f"usage: oracle.py {{{','.join(ORACLES)}}} <seed>")
    print(json.dumps(ORACLES[sys.argv[1]](int(sys.argv[2]))))
