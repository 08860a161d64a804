"""One-trajectory reference paths that the lockstep drivers are checked against.

Each reference steps a single state through ``engine._Runtime.advance``, the
step every driver takes, one step at a time: no blocks, threads, chunked
noise or collapse.

- ``step``: one update of one state, given its Gaussian increment and the
  marks of its jumps. Stepping by hand with it is what a one-trajectory
  ensemble must equal bit for bit.
- ``simulate_trajectory``: one trajectory through a recorded ``NoisePath``.
  It must equal manual stepping and a one-trajectory ensemble bit for bit.
- ``coupled_pair``: X on [0, T + tau] under a recorded path and Y on [0, T]
  under its tau-shifted view, the coupling behind the paper's limit
  existence. The coupled ensemble driver must match it.
- ``sample_path``: ``noise.sample_path``'s arrays as a ``NoisePath``.
- ``shift_view``: that record started ``tau_steps`` later, without copying;
  replaying it is what the coupled driver's late-started system must see.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from spdelab import noise
from spdelab.engine import Scenario, _Runtime
from spdelab.errors import ContractViolation

_ONE = np.zeros(1, dtype=np.int64)      # trajectory ids of a one-row block


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Materialized noise on a step grid; slices of it act as shifted views."""

    dt: float
    n_steps: int
    gaussian: np.ndarray       # (n_steps, n_modes), variance dt*lambda_j
    jump_steps: np.ndarray     # (K,) sorted step indices
    jump_marks: np.ndarray     # (K, mark_dim)


def sample_path(qw, js, dt: float, n_steps: int, seed: int, traj_index: int = 0) -> NoisePath:
    """One trajectory's noise record from its derived substreams."""
    return NoisePath(dt, int(n_steps), *noise.sample_path(qw, js, dt, n_steps, seed, traj_index))


def shift_view(path: NoisePath, tau_steps: int) -> NoisePath:
    """View of the record starting ``tau_steps`` later; no array data is copied."""
    tau_steps = int(tau_steps)
    if not 0 <= tau_steps <= path.n_steps:
        raise ContractViolation(
            f"shift {tau_steps} outside the recorded range [0, {path.n_steps}]")
    if tau_steps == 0:
        return path
    i0 = int(np.searchsorted(path.jump_steps, tau_steps, side="left"))
    return replace(path,
                   n_steps=path.n_steps - tau_steps,
                   gaussian=path.gaussian[tau_steps:],
                   jump_steps=path.jump_steps[i0:] - tau_steps,
                   jump_marks=path.jump_marks[i0:])


def step(sc: Scenario, x, dt: float, gaussian_inc=None, jump_marks=None) -> np.ndarray:
    """One exponential-Euler update of a single state vector."""
    rt = _Runtime(sc, dt)
    X = np.asarray(x, dtype=float)[None, :].copy()
    if gaussian_inc is not None:
        xi = np.asarray(gaussian_inc, dtype=float)[None, :]
    elif sc.n_modes:
        xi = np.zeros((1, sc.n_modes))
    else:
        xi = None
    if jump_marks is not None and len(jump_marks):
        jm = np.atleast_2d(np.asarray(jump_marks, dtype=float))
        jrows = np.zeros(len(jm), dtype=np.int64)
    else:
        jm, jrows = None, None
    out = rt.advance(X, xi, jrows, jm)
    rt.assert_finite(out, 0, _ONE)
    return out[0]


def simulate_trajectory(sc: Scenario, x, path: NoisePath) -> np.ndarray:
    """Step one trajectory through a recorded noise path; returns its state
    history ``(n_steps+1, dim)``."""
    rt = _Runtime(sc, path.dt)
    X = np.asarray(x, dtype=float)[None, :].copy()
    if X.shape[1] != sc.dim:
        raise ContractViolation("initial state does not match the scenario dimension")
    hist = np.empty((path.n_steps + 1, sc.dim))
    hist[0] = X[0]
    # the jumps of step k are jump_marks[offsets[k]:offsets[k + 1]]
    offsets = np.searchsorted(path.jump_steps, np.arange(path.n_steps + 1))
    for k in range(path.n_steps):
        xi = path.gaussian[k][None, :] if path.gaussian.shape[1] else None
        a, b = offsets[k], offsets[k + 1]
        jrows, jm = (np.zeros(b - a, dtype=np.int64), path.jump_marks[a:b]) if b > a \
            else (None, None)
        X = rt.advance(X, xi, jrows, jm)
        rt.assert_finite(X, k, _ONE, k - 1 if k else None)
        hist[k + 1] = X[0]
    return hist


def coupled_pair(sc: Scenario, x, tau: float, dt: float, n_steps: int, seed: int,
                 traj_index: int = 0):
    """Single-trajectory coupling: X driven by a recorded path on [0, T+tau],
    Y by the tau-shifted view of the same record. Returns both state histories."""
    tau_steps = int(round(tau / dt))
    if abs(tau_steps * dt - tau) > 1e-9 * max(1.0, abs(tau)):
        raise ContractViolation("tau must be a multiple of dt")
    path = sample_path(sc.qwiener, sc.jumps, dt, int(n_steps) + tau_steps, seed,
                       traj_index=traj_index)
    x_hist = simulate_trajectory(sc, x, path)
    y_hist = simulate_trajectory(sc, x, shift_view(path, tau_steps))
    return {"x_path": x_hist, "y_path": y_hist, "tau_steps": tau_steps}
