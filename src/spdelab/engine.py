"""Exponential-Euler time stepping of the mild formulation

    X_{k+1} = S(dt) [ X_k + dt (F(X_k) - comp(X_k)) + sigma(X_k) dW_k
                      + sum_{jumps in step k} gamma(X_k, mark) ]

with all integrands frozen at the left endpoint and propagated by the
full-step semigroup.

Every ensemble runs on one lockstep core: systems that share each
trajectory's noise, each started at a given grid step. An independent run is
one system, a common-noise pair two started together, and the shifted
coupling of a trajectory with its own future two started tau steps apart.
The core steps one step at a time, except for a single system with
state-independent coefficients, no jumps, a dense propagator, dim <= 8,
n_traj > 1 and n_steps > 0: there the steps between two stops (snapshots and
chunk ends) collapse into one contraction against precomputed propagator
powers. The collapse regroups the floating-point sums, so a one-trajectory
run keeps stepping and stays bit-equal to manual stepping. Every state that
is recorded or reduced, and every state that ends a noise chunk of
_CHUNK_STEPS steps, is first checked against BLOWUP_NORM.

Determinism: every trajectory owns Philox substreams keyed by
``(master_seed, trajectory_index, stream)``; blocks and threads only change
the evaluation schedule, never the numbers. Reductions across trajectories
are assembled in fixed block order.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, HypothesisViolated, NumericalBlowup
from .gdc import GdcCertificate
from .hilbert import MATRIX_EXP, HilbertSpace, OperatorModel, Projection
from .noise import (JumpSpec, NoisePath, QWienerSpec, STREAM_GAUSS, jump_draw, sample_path,
                    shift_view, substream)

BLOWUP_NORM = 1e12
_CHUNK_STEPS = 2048
_BLOCK_CAP_BYTES = 192 * 2**20
_MAX_BLOCK = 8192
LIP_SEED = 61_003


# ---------------------------------------------------------------------------
# diffusion coefficient models


@dataclass(frozen=True, eq=False)
class ConstantSigma:
    """State-independent diffusion: fixed per-mode columns of shape (dim, m)."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=float)))

    def apply(self, X, xi):
        return xi @ self.matrix.T

    def columns(self, x):
        return self.matrix


@dataclass(frozen=True, eq=False)
class ConstantDrift:
    """State-independent drift; recognized by the linear-additive fast path."""

    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", np.asarray(self.value, dtype=float))

    def __call__(self, X):
        return np.broadcast_to(self.value, X.shape)


@dataclass(frozen=True, eq=False)
class LinearSigma:
    """Affine per-mode columns ``sigma(x) e_j = G_j x + c_j``."""

    tensors: np.ndarray    # (m, dim, dim)
    offsets: np.ndarray    # (m, dim)

    def __post_init__(self):
        object.__setattr__(self, "tensors", np.asarray(self.tensors, dtype=float))
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=float))

    def apply(self, X, xi):
        out = np.einsum("bm,mij,bj->bi", xi, self.tensors, X)
        out += xi @ self.offsets
        return out

    def columns(self, x):
        return (self.tensors @ np.asarray(x, dtype=float)).T + self.offsets.T


@dataclass(eq=False)
class ScenarioFlags:
    vanishing_on_H1: bool = False
    deterministic_P1: bool = False


@dataclass(eq=False)
class Scenario:
    """One SPDE instance: operator, coefficients, noise and its certificate."""

    op: OperatorModel
    P1: Projection
    qwiener: QWienerSpec | None = None
    drift: "callable | None" = None          # rows -> rows
    sigma: "object | None" = None            # .apply(X, xi), .columns(x)
    jumps: JumpSpec | None = None
    certificate: GdcCertificate | None = None
    flags: ScenarioFlags = field(default_factory=ScenarioFlags)
    fused: "callable | None" = None          # (X, xi, Workspace) -> (drift_rows, noise_rows)
    scenario_id: str = "scenario"

    @property
    def space(self) -> HilbertSpace:
        return self.op.space

    @property
    def dim(self) -> int:
        return self.op.space.dim

    @property
    def n_modes(self) -> int:
        return self.qwiener.n_modes if self.qwiener is not None else 0

    def contractive_certificate(self) -> GdcCertificate:
        """The certificate if epsilon > 0, the stability-estimate hypothesis."""
        if self.certificate is None or not self.certificate.contractive:
            raise HypothesisViolated("epsilon-positive",
                                     "need a certificate with epsilon = 2 alpha - L_sigma - L_gamma > 0")
        return self.certificate

    def lipschitz_audit(self, n_pairs: int = 200, seed: int = LIP_SEED,
                        scale: float = 1.0, slack: float = 1.01) -> dict:
        """Spot-check the declared squared-norm Lipschitz constants on random pairs."""
        if self.certificate is None:
            raise ContractViolation("lipschitz audit needs a certificate with declared constants")
        lip = self.certificate.lipschitz
        gen = np.random.Generator(np.random.Philox(seed))
        space = self.space
        d = self.dim
        X = scale * gen.standard_normal((n_pairs, d))
        Y = scale * gen.standard_normal((n_pairs, d))
        gap2 = space.norm2_rows(X - Y)
        report = {}
        if self.drift is not None:
            r = space.norm2_rows(self.drift(X) - self.drift(Y)) / gap2
            report["L_F"] = float(np.max(r))
            if report["L_F"] > lip.L_F * slack + 1e-12:
                raise HypothesisViolated("lipschitz-F", f"measured {report['L_F']:.4g} > declared {lip.L_F:.4g}")
        if self.sigma is not None and self.qwiener is not None:
            lam = self.qwiener.eigenvalues
            worst = 0.0
            for x, y, g2 in zip(X, Y, gap2):
                dc = self.sigma.columns(x) - self.sigma.columns(y)
                hs = float(np.sum(lam * np.array([space.norm2(dc[:, j]) for j in range(dc.shape[1])])))
                worst = max(worst, hs / g2)
            report["L_sigma"] = worst
            if worst > lip.L_sigma * slack + 1e-12:
                raise HypothesisViolated("lipschitz-sigma", f"measured {worst:.4g} > declared {lip.L_sigma:.4g}")
        if self.jumps is not None and self.jumps.total_rate > 0:
            worst = 0.0
            for x, y, g2 in zip(X[:50], Y[:50], gap2[:50]):
                worst = max(worst, self.jumps.second_moment_diff(space, x, y) / g2)
            report["L_gamma"] = worst
            if worst > lip.L_gamma * slack + 1e-12:
                raise HypothesisViolated("lipschitz-gamma", f"measured {worst:.4g} > declared {lip.L_gamma:.4g}")
        return report


# ---------------------------------------------------------------------------
# stepping kernel


class Workspace:
    """Scratch arrays for one thread's steps, reused from step to step.

    A fused coefficient hook takes its arrays from here and returns drift
    and noise rows that live in them; the step overwrites both.
    """

    def __init__(self):
        self._arrays = []

    def arrays(self, count: int, shape: tuple) -> list:
        """``count`` float arrays of ``shape`` with undefined contents."""
        rows, tail = shape[0], tuple(shape[1:])
        for i in range(count):
            if (i == len(self._arrays) or self._arrays[i].shape[1:] != tail
                    or self._arrays[i].shape[0] < rows):
                self._arrays[i:i + 1] = [np.empty((rows, *tail))]
        return [a[:rows] for a in self._arrays[:count]]


class _Runtime:
    """Per-(scenario, dt) plan: precomputed propagator and coefficient hooks,
    plus one step workspace per thread, freed with the plan."""

    def __init__(self, sc: Scenario, dt: float):
        if dt <= 0:
            raise ContractViolation("dt must be positive")
        self.sc = sc
        self.dt = float(dt)
        self.drift = sc.drift
        self.sigma = sc.sigma
        self.fused = sc.fused
        self.jumps = sc.jumps if (sc.jumps is not None and sc.jumps.total_rate > 0) else None
        self._et = sc.op.semigroup_matrix(self.dt).T.copy() \
            if sc.op.semigroup_mode == MATRIX_EXP else None
        self._local = threading.local()

    def propagate(self, U, out=None):
        if self._et is not None:
            return np.matmul(U, self._et, out=out)
        return self.sc.op.apply_semigroup_rows(self.dt, U, out=out)

    def workspace(self) -> Workspace:
        ws = getattr(self._local, "ws", None)
        if ws is None:
            ws = self._local.ws = Workspace()
        return ws

    def advance(self, X, xi, jrows, jmarks):
        """One step of the block ``X``; the fused path overwrites ``X`` with
        the result, so callers pass a state array they own. The result is
        not checked: callers check it with ``assert_finite``."""
        dt = self.dt
        if self.fused is not None:
            dr, nz = self.fused(X, xi, self.workspace())
            upd = np.multiply(dr, dt, out=dr)
            np.add(X, upd, out=upd)
            upd += nz
        else:
            upd = X
            if self.drift is not None:
                upd = X + dt * self.drift(X)
            if self.sigma is not None and xi is not None:
                contrib = self.sigma.apply(X, xi)
                upd = upd + contrib if upd is X else np.add(upd, contrib, out=upd)
        if self.jumps is not None:
            comp = dt * self.jumps.compensator_rows(X)
            upd = upd - comp if upd is X else np.subtract(upd, comp, out=upd)
            if jrows is not None and len(jrows):
                np.add.at(upd, jrows, self.jumps.gamma(X[jrows], jmarks))
        return self.propagate(upd, out=X if self.fused is not None else None)

    @staticmethod
    def assert_finite(out, step_index, traj_ids, last_passed=None):
        """Raise ``NumericalBlowup`` if a row of ``out`` is past BLOWUP_NORM;
        ``last_passed`` is the step of the previous check these rows passed."""
        mx = np.abs(out).max() if out.size else 0.0
        if not mx < BLOWUP_NORM:
            bad = ~(np.abs(out).max(axis=1) < BLOWUP_NORM)
            ids = traj_ids[bad] if traj_ids is not None else np.nonzero(bad)[0]
            raise NumericalBlowup(step_index, ids.tolist(), last_passed)

    @property
    def linear_additive(self) -> bool:
        """True when one chunk of steps collapses to a single contraction:
        state-independent coefficients, no jumps, dense propagator."""
        return (self.fused is None and self.jumps is None
                and (self.drift is None or isinstance(self.drift, ConstantDrift))
                and (self.sigma is None or isinstance(self.sigma, ConstantSigma))
                and self.sc.op.semigroup_mode == MATRIX_EXP)


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
    rt.assert_finite(out, 0, None)
    return out[0]


def simulate_trajectory(sc: Scenario, x, path: NoisePath, record_path: bool = True):
    """Step one trajectory through a recorded noise path.

    Returns the full state history ``(n_steps+1, dim)`` when ``record_path``,
    otherwise just the terminal state.
    """
    rt = _Runtime(sc, path.dt)
    X = np.asarray(x, dtype=float)[None, :].copy()
    if X.shape[1] != sc.dim:
        raise ContractViolation("initial state does not match the scenario dimension")
    hist = np.empty((path.n_steps + 1, sc.dim)) if record_path else None
    if record_path:
        hist[0] = X[0]
    steps, marks = path.jump_steps, path.jump_marks
    zero_rows = np.zeros(0, dtype=np.int64)
    ptr = 0
    for k in range(path.n_steps):
        xi = path.gaussian[k][None, :] if path.gaussian.shape[1] else None
        hi = ptr
        while hi < len(steps) and steps[hi] == k:
            hi += 1
        if hi > ptr:
            jrows = np.zeros(hi - ptr, dtype=np.int64)
            jm = marks[ptr:hi]
        else:
            jrows, jm = zero_rows, None
        ptr = hi
        X = rt.advance(X, xi, jrows if len(jrows) else None, jm)
        rt.assert_finite(X, k, None, k - 1 if k else None)
        if record_path:
            hist[k + 1] = X[0]
    return hist if record_path else X[0]


# ---------------------------------------------------------------------------
# lockstep core


def _block_size(n_traj: int, n_modes: int, dim: int, n_systems: int) -> int:
    per_traj = 8 * (2 * _CHUNK_STEPS * max(n_modes, 1) + 6 * dim * n_systems)
    b = min(n_traj, _MAX_BLOCK, max(1, _BLOCK_CAP_BYTES // per_traj))
    return int(b)


class _BlockNoise:
    """Noise for a block of trajectories, delivered in chunks.

    Gaussian values are drawn per trajectory from its own substream in
    chunk-sized pieces; chunked draws concatenate to exactly the stream a
    one-shot ``sample_path`` would produce. Jump events are materialized up
    front (finite activity keeps them sparse), ordered by step, then by
    trajectory, then by draw.
    """

    def __init__(self, sc: Scenario, dt: float, n_steps: int, master_seed: int,
                 traj_ids: np.ndarray):
        qw = sc.qwiener
        self.m = qw.n_modes if qw is not None else 0
        if self.m:
            self._gens = [substream(master_seed, ti, STREAM_GAUSS) for ti in traj_ids]
            self._std = qw.increment_std(dt)
        js = sc.jumps
        self.joffsets = None
        if js is not None and js.total_rate > 0:
            draws = [jump_draw(js, dt, n_steps, master_seed, ti) for ti in traj_ids]
            steps = np.concatenate([k for k, _ in draws])
            rows = np.repeat(np.arange(len(draws), dtype=np.int64), [len(k) for k, _ in draws])
            order = np.argsort(steps, kind="stable")
            self.jrows, self.jmarks = rows[order], np.concatenate([m for _, m in draws])[order]
            self.joffsets = np.searchsorted(steps[order], np.arange(n_steps + 1))

    def gauss_chunk(self, k0: int, k1: int, raw: bool = False):
        """Increments of steps ``k0:k1``, time-major and scaled; with ``raw``,
        the trajectory-major standard normals they are made from."""
        if not self.m:
            return None
        buf = np.empty((len(self._gens), k1 - k0, self.m))
        for b, gen in enumerate(self._gens):
            buf[b] = gen.standard_normal((k1 - k0, self.m))
        if raw:
            return buf
        buf *= self._std
        return np.ascontiguousarray(buf.transpose(1, 0, 2))

    def jumps_at(self, k: int):
        if self.joffsets is None:
            return None, None
        a, b = self.joffsets[k], self.joffsets[k + 1]
        if a == b:
            return None, None
        return self.jrows[a:b], self.jmarks[a:b]


class _Lockstep:
    """Systems driven by one noise stream per trajectory, stepped together in
    blocks of trajectories.

    ``systems`` lists ``(initial, start_step)`` pairs: system ``s`` starts
    from ``initial`` (one state, or one per trajectory) at grid step
    ``start_s`` and takes every later grid step up to ``n_steps + max(start)``.
    ``n_steps`` and the snapshot times count on the clock of the last-started
    system, and so do the stops at which ``run`` reduces the states: the
    snapshots or, with ``every_step``, every step.
    """

    def __init__(self, sc: Scenario, dt: float, systems, n_steps: int, n_traj: int,
                 master_seed: int, snapshot_times, every_step: bool = False):
        self.n_steps, self.n_traj = n_steps, n_traj = int(n_steps), int(n_traj)
        self.starts = [int(k) for _, k in systems]
        if n_traj < 1:
            raise ContractViolation("n_traj must be >= 1")
        if n_steps < 0:
            raise ContractViolation("n_steps must be >= 0")
        if min(self.starts) < 0:
            raise ContractViolation("tau_steps must be >= 0")
        t = np.atleast_1d(np.asarray(snapshot_times, dtype=float))
        self.snap_steps = snaps = np.rint(t / dt).astype(np.int64)
        if np.any(np.abs(snaps * dt - t) > 1e-9 * np.maximum(1.0, np.abs(t))):
            raise ContractViolation("snapshot times must lie on the step grid")
        if np.any(snaps < 0) or np.any(snaps > n_steps):
            raise ContractViolation("snapshot times outside the simulated horizon")
        if np.any(np.diff(snaps) <= 0):
            raise ContractViolation("snapshot times must be strictly increasing")
        self.initial = [np.asarray(x, dtype=float) for x, _ in systems]
        if any(x.shape not in ((sc.dim,), (n_traj, sc.dim)) for x in self.initial):
            raise ContractViolation("initial states must be (dim,) or (n_traj, dim) "
                                    "in the scenario dimension")
        self.sc, self.master_seed = sc, int(master_seed)
        self.rt = rt = _Runtime(sc, dt)
        self.t0 = t0 = max(self.starts)         # grid step = that clock's step + t0
        self.lookup = {int(s) + t0: i for i, s in enumerate(snaps)}
        self.stops = set(range(t0, t0 + n_steps + 1)) if every_step else set(self.lookup)
        self.block = _block_size(n_traj, sc.n_modes, sc.dim, len(systems))
        # the linear-additive collapse (see the module docstring)
        self.fast = (len(systems) == 1 and rt.linear_additive and sc.dim <= 8
                     and n_traj > 1 and n_steps > 0)
        self.weights = {}
        self.chunks = []
        for k0 in range(0, t0 + n_steps, _CHUNK_STEPS):
            k1 = min(k0 + _CHUNK_STEPS, t0 + n_steps)
            if not self.fast:
                self.chunks.append((k0, k1, range(k0 + 1, k1 + 1)))
                continue
            ends = sorted({s for s in self.stops if k0 < s < k1} | {k1})
            for a, b in zip([k0, *ends], ends):
                if b - a not in self.weights:
                    self.weights[b - a] = self._collapse_weights(b - a)
            self.chunks.append((k0, k1, ends))

    def _collapse_weights(self, L: int):
        """Propagator power, raw-noise weights and drift term of ``L`` steps."""
        sc, rt = self.sc, self.rt
        q = np.empty((L, sc.dim, sc.dim))
        q[L - 1] = rt._et
        for j in range(L - 2, -1, -1):
            q[j] = q[j + 1] @ rt._et
        dterm = rt.dt * (rt.drift.value @ q.sum(axis=0)) if rt.drift is not None else None
        w = None
        if sc.sigma is not None:
            # raw-noise weights: mode scaling folded in up front
            ct, std = sc.sigma.matrix.T.copy(), sc.qwiener.increment_std(rt.dt)
            w = (np.matmul(ct, q) * std[None, :, None]).reshape(L * ct.shape[0], sc.dim)
        return q[0].copy(), w, dterm

    def _collapse(self, X, chunk, a: int, b: int):
        """``X`` advanced over the steps at offsets ``a:b`` of a raw chunk."""
        q0, w, dterm = self.weights[b - a]
        xn = X @ q0
        if chunk is not None and w is not None:
            xn += chunk[:, a:b, :].reshape(len(X), -1) @ w
        if dterm is not None:
            xn += dterm
        return xn

    def run(self, reduce, threads: int, keep_terminal: bool = False):
        """Step every block, calling ``reduce(k, i, lo, hi, states)`` at each
        stop ``k`` with ``i`` its snapshot index or None and ``states`` the
        states of trajectories ``lo:hi`` in system order. Every state that is
        reduced or ends a noise chunk is first checked against BLOWUP_NORM.
        Returns the final states ``(n_systems, n_traj, dim)`` if asked."""
        sc, rt, fast, starts = self.sc, self.rt, self.fast, self.starts
        t0, stops, lookup = self.t0, self.stops, self.lookup
        terminal = np.empty((len(starts), self.n_traj, sc.dim)) if keep_terminal else None

        # a blow-up is reported by the next check, not by numpy warnings
        @np.errstate(over="ignore", invalid="ignore")
        def worker(lo, hi):
            ids = np.arange(lo, hi, dtype=np.int64)
            passed = [None] * len(starts)   # step of each system's last passed check
            states = [np.empty((hi - lo, sc.dim)) for _ in self.initial]
            for X, x in zip(states, self.initial):
                X[:] = x if x.ndim == 1 else x[lo:hi]
            noise = _BlockNoise(sc, rt.dt, t0 + self.n_steps, self.master_seed, ids)
            if t0 == 0 and 0 in stops:
                reduce(0, lookup.get(0), lo, hi, states)
            for k0, k1, ends in self.chunks:
                chunk = noise.gauss_chunk(k0, k1, raw=fast)
                a = k0
                for b in ends:
                    if fast:
                        states[0] = self._collapse(states[0], chunk, a - k0, b - k0)
                    else:
                        xi = chunk[a - k0] if chunk is not None else None
                        jr, jm = noise.jumps_at(a)
                        for s, start in enumerate(starts):
                            if a >= start:
                                states[s] = rt.advance(states[s], xi, jr, jm)
                    a = b
                    if b in stops or b == k1:
                        for s, start in enumerate(starts):
                            if b > start:
                                rt.assert_finite(states[s], b - 1 - start, ids, passed[s])
                                passed[s] = b - 1 - start
                        if b in stops:
                            reduce(b - t0, lookup.get(b), lo, hi, states)
            if keep_terminal:
                terminal[:, lo:hi] = states

        ranges = [(lo, min(lo + self.block, self.n_traj))
                  for lo in range(0, self.n_traj, self.block)]
        if threads <= 1 or len(ranges) == 1:
            for lo, hi in ranges:
                worker(lo, hi)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for f in [pool.submit(worker, lo, hi) for lo, hi in ranges]:
                    f.result()
        return terminal


def snapshot_grid(horizon: float, dt: float, spacing: float) -> np.ndarray:
    """Step times ``0, every, 2 every, ...`` up to ``round(horizon / dt)``
    steps, ``every = round(spacing / dt)`` steps and at least one."""
    every = max(1, int(round(spacing / dt)))
    return np.arange(0, int(round(horizon / dt)) + 1, every) * dt


def mean_stderr(samples: np.ndarray):
    """Mean over trajectories of ``(n_snap, n_traj)`` samples and its
    standard error (zero for one trajectory)."""
    mean = samples.mean(axis=1)
    n_traj = samples.shape[1]
    se = samples.std(axis=1, ddof=1) / math.sqrt(n_traj) if n_traj > 1 else np.zeros_like(mean)
    return mean, se


# ---------------------------------------------------------------------------
# ensemble drivers: each builds its systems and a reduction for the core


@dataclass(eq=False)
class Ensemble:
    """Recorded snapshots of an independent-trajectory simulation."""

    scenario_id: str
    dt: float
    n_steps: int
    n_traj: int
    master_seed: int
    snapshot_times: np.ndarray
    snapshot_steps: np.ndarray
    states: np.ndarray | None                 # (n_snap, n_traj, dim) or None
    observables: dict                         # name -> (n_snap, n_traj)
    traj_indices: np.ndarray

    @property
    def seeds(self) -> list:
        """Per-trajectory substream keys (master seed, trajectory index)."""
        return [(self.master_seed, int(i)) for i in self.traj_indices]


def simulate_ensemble(sc: Scenario, initial, dt: float, n_steps: int, n_traj: int,
                      master_seed: int, snapshot_times, observables: dict | None = None,
                      threads: int = 1) -> Ensemble:
    """Simulate independent trajectories; deterministic for any thread count.

    ``observables`` maps names to rowwise functions ``X -> (B,)``; when given,
    only those reductions are stored per snapshot instead of full states.
    """
    ls = _Lockstep(sc, dt, [(initial, 0)], n_steps, n_traj, master_seed, snapshot_times)
    n_snap, n_traj = len(ls.snap_steps), ls.n_traj
    states = np.empty((n_snap, n_traj, sc.dim)) if observables is None else None
    obs_out = {name: np.empty((n_snap, n_traj)) for name in observables or {}}

    def record(k, i, lo, hi, xs):
        if states is not None:
            states[i, lo:hi] = xs[0]
        for name, fn in (observables or {}).items():
            obs_out[name][i, lo:hi] = fn(xs[0])

    ls.run(record, threads)
    return Ensemble(scenario_id=sc.scenario_id, dt=float(dt), n_steps=ls.n_steps,
                    n_traj=n_traj, master_seed=int(master_seed),
                    snapshot_times=ls.snap_steps * float(dt), snapshot_steps=ls.snap_steps,
                    states=states, observables=obs_out,
                    traj_indices=np.arange(n_traj, dtype=np.int64))


@dataclass(eq=False)
class PairEnsembleResult:
    """Common-noise pair run with per-step projected-gap statistics."""

    dt: float
    n_steps: int
    n_traj: int
    step_times: np.ndarray            # (n_steps+1,)
    p1gap2_mean: np.ndarray           # E ||P1 (X - Y)||^2 at every step time
    p1gap2_se: np.ndarray
    snapshot_times: np.ndarray
    gap2: np.ndarray                  # (n_snap, n_traj) ||X - Y||^2
    x_terminal: np.ndarray | None
    y_terminal: np.ndarray | None


def simulate_pair_ensemble(sc: Scenario, x, y, dt: float, n_steps: int, n_traj: int,
                           master_seed: int, snapshot_times, keep_terminal: bool = False,
                           threads: int = 1) -> PairEnsembleResult:
    """Drive two initial conditions with identical noise, in lockstep."""
    ls = _Lockstep(sc, dt, [(x, 0), (y, 0)], n_steps, n_traj, master_seed, snapshot_times,
                   every_step=True)
    n_steps, n_traj, space = ls.n_steps, ls.n_traj, sc.space
    gap2 = np.empty((len(ls.snap_steps), n_traj))
    # per-block sums of ||P1 (X - Y)||^2 and of its square, added in block order
    psum = np.zeros((math.ceil(n_traj / ls.block), n_steps + 1))
    psq = np.zeros_like(psum)
    p1m = sc.P1.matrix.T.copy()

    def reduce(k, i, lo, hi, xs):
        X, Y = xs
        v = space.norm2_rows((X - Y) @ p1m)
        psum[lo // ls.block, k] = v.sum()
        psq[lo // ls.block, k] = (v * v).sum()
        if i is not None:
            gap2[i, lo:hi] = space.norm2_rows(X - Y)

    terminal = ls.run(reduce, threads, keep_terminal)
    xt, yt = terminal if keep_terminal else (None, None)
    mean = psum.sum(axis=0) / n_traj
    var = np.maximum(psq.sum(axis=0) / n_traj - mean**2, 0.0)
    se = np.sqrt(var / n_traj)
    return PairEnsembleResult(dt=float(dt), n_steps=n_steps, n_traj=n_traj,
                              step_times=np.arange(n_steps + 1) * float(dt),
                              p1gap2_mean=mean, p1gap2_se=se,
                              snapshot_times=ls.snap_steps * float(dt), gap2=gap2,
                              x_terminal=xt, y_terminal=yt)


@dataclass(eq=False)
class CoupledEnsembleResult:
    """Shifted-noise coupling of (X_{t+tau}, Y_t) across an ensemble."""

    dt: float
    tau_steps: int
    n_steps: int
    n_traj: int
    snapshot_times: np.ndarray
    coupling_gap2: np.ndarray      # (n_snap, n_traj) ||Y_t - X_{t+tau}||^2
    y_terminal: np.ndarray | None
    x_terminal: np.ndarray | None


def simulate_coupled_ensemble(sc: Scenario, x, tau_steps: int, dt: float, n_steps: int,
                              n_traj: int, master_seed: int, snapshot_times,
                              keep_terminal: bool = False, threads: int = 1) -> CoupledEnsembleResult:
    """Drive X on [0, T+tau] and Y on [0, T] with the tau-shifted noise view.

    Y starts at grid step tau, so at its step j both systems consume the
    parent increment tau+j and ``Y_j`` sees what a shifted view would replay.
    """
    tau_steps = int(tau_steps)
    ls = _Lockstep(sc, dt, [(x, 0), (x, tau_steps)], n_steps, n_traj, master_seed,
                   snapshot_times)
    n_steps, n_traj = ls.n_steps, ls.n_traj
    gap2 = np.empty((len(ls.snap_steps), n_traj))

    def reduce(k, i, lo, hi, xs):
        gap2[i, lo:hi] = sc.space.norm2_rows(xs[1] - xs[0])

    terminal = ls.run(reduce, threads, keep_terminal)
    xt, yt = terminal if keep_terminal else (None, None)
    return CoupledEnsembleResult(dt=float(dt), tau_steps=tau_steps, n_steps=n_steps,
                                 n_traj=n_traj, snapshot_times=ls.snap_steps * float(dt),
                                 coupling_gap2=gap2, y_terminal=yt, x_terminal=xt)


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
    return {"x_path": x_hist, "y_path": y_hist, "tau_steps": tau_steps, "path": path}


# ---------------------------------------------------------------------------
# diagnostics built on the drivers


def lyapunov_probe(sc: Scenario, x, y) -> float:
    """Value of the pairwise Lyapunov form

    2 <A(x-y) + F(x) - F(y), x-y> + ||sigma(x)-sigma(y)||_{HS}^2
    + integral ||gamma(x,nu) - gamma(y,nu)||^2 mu(d nu).
    """
    space = sc.space
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    a = sc.op.generator_matrix()
    val = 2.0 * space.inner(a @ d, d)
    if sc.drift is not None:
        df = sc.drift(x[None, :])[0] - sc.drift(y[None, :])[0]
        val += 2.0 * space.inner(df, d)
    if sc.sigma is not None and sc.qwiener is not None:
        dc = sc.sigma.columns(x) - sc.sigma.columns(y)
        lam = sc.qwiener.eigenvalues
        val += float(sum(lam[j] * space.norm2(dc[:, j]) for j in range(dc.shape[1])))
    if sc.jumps is not None and sc.jumps.total_rate > 0:
        val += sc.jumps.second_moment_diff(space, x, y)
    return float(val)


def lyapunov_bound(sc: Scenario, x, y) -> float:
    """Certified upper bound  -eps ||x-y||^2 + 2(alpha+beta) ||P1(x-y)||^2."""
    if sc.certificate is None:
        raise ContractViolation("lyapunov bound needs a certificate")
    c = sc.certificate
    space = sc.space
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(-c.epsilon * space.norm2(d)
                 + 2.0 * (c.alpha + c.beta_const) * space.norm2(sc.P1.apply(d)))


@dataclass(eq=False)
class StabilityReport:
    times: np.ndarray
    lhs_mean: np.ndarray
    lhs_se: np.ndarray
    rhs: np.ndarray
    rhs_se: np.ndarray
    violations: np.ndarray     # lhs - rhs per snapshot
    slack: np.ndarray          # allowed Monte-Carlo slack per snapshot
    ok: bool


def stability_check(sc: Scenario, x, y, dt: float, n_steps: int, n_traj: int,
                    seed: int, snapshot_times, threads: int = 1) -> StabilityReport:
    """Monte-Carlo audit of the pairwise second-moment stability bound

    E||X_t^x - X_t^y||^2 <= e^{-eps t} ||x-y||^2
                            + 2(alpha+beta) int_0^t e^{-eps(t-s)} E||P1 dX_s||^2 ds.
    """
    cert = sc.contractive_certificate()
    res = simulate_pair_ensemble(sc, x, y, dt, n_steps, n_traj, seed, snapshot_times,
                                 threads=threads)
    space = sc.space
    gap0 = space.norm2(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    eps, coef = cert.epsilon, 2.0 * (cert.alpha + cert.beta_const)
    times = res.snapshot_times
    lhs_mean, lhs_se = mean_stderr(res.gap2)
    rhs = np.empty_like(lhs_mean)
    rhs_se = np.empty_like(lhs_mean)
    s = res.step_times
    for i, t in enumerate(times):
        k = int(round(t / dt))
        w = np.exp(-eps * (t - s[:k + 1]))
        rhs[i] = math.exp(-eps * t) * gap0 + coef * np.trapezoid(w * res.p1gap2_mean[:k + 1], dx=dt)
        rhs_se[i] = coef * np.trapezoid(w * res.p1gap2_se[:k + 1], dx=dt)
    violations = lhs_mean - rhs
    slack = 3.0 * (lhs_se + rhs_se) + 1e-9 * (1.0 + np.abs(rhs))
    return StabilityReport(times=times, lhs_mean=lhs_mean, lhs_se=lhs_se, rhs=rhs,
                           rhs_se=rhs_se, violations=violations, slack=slack,
                           ok=bool(np.all(violations <= slack)))


# rowwise observable builders used by drivers and the CLI


def obs_coordinate(i: int):
    return lambda X: X[:, i].copy()

def obs_norm2(space: HilbertSpace, center=None):
    if center is None:
        return lambda X: space.norm2_rows(X)
    c = np.asarray(center, dtype=float)
    return lambda X: space.norm2_rows(X - c)

def obs_projected_norm2(space: HilbertSpace, P: Projection, center=None):
    m = P.matrix.T.copy()
    if center is None:
        return lambda X: space.norm2_rows(X @ m)
    c = np.asarray(center, dtype=float)
    return lambda X: space.norm2_rows((X - c) @ m)
