"""Exponential-Euler time stepping of the mild formulation

    X_{k+1} = S(dt) [ X_k + dt (F(X_k) - comp(X_k)) + sigma(X_k) dW_k
                      + sum_{jumps in step k} gamma(X_k, mark) ]

with all integrands frozen at the left endpoint and propagated by the
full-step semigroup, plus ensemble drivers for independent runs, common-noise
pairs, and the shifted-noise coupling of one trajectory with its own future.

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
from .noise import (JumpSpec, NoisePath, QWienerSpec, STREAM_GAUSS, STREAM_JUMP,
                    sample_path, shift_view, substream)

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

    def advance(self, X, xi, jrows, jmarks, step_index, traj_ids, check: bool = True):
        """One step of the block ``X``; the fused path overwrites ``X`` with
        the result, so callers pass a state array they own."""
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
        out = self.propagate(upd, out=X if self.fused is not None else None)
        if check:
            self.assert_finite(out, step_index, traj_ids)
        return out

    @staticmethod
    def assert_finite(out, step_index, traj_ids):
        mx = np.abs(out).max() if out.size else 0.0
        if not mx < BLOWUP_NORM:
            bad = ~(np.abs(out).max(axis=1) < BLOWUP_NORM)
            ids = traj_ids[bad] if traj_ids is not None else np.nonzero(bad)[0]
            raise NumericalBlowup(step_index, ids.tolist())

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
    return rt.advance(X, xi, jrows, jm, 0, None)[0]


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
        X = rt.advance(X, xi, jrows if len(jrows) else None, jm, k, None)
        if record_path:
            hist[k + 1] = X[0]
    return hist if record_path else X[0]


# ---------------------------------------------------------------------------
# block infrastructure


def _block_size(n_traj: int, n_modes: int, dim: int, n_systems: int) -> int:
    per_traj = 8 * (2 * _CHUNK_STEPS * max(n_modes, 1) + 6 * dim * n_systems)
    b = min(n_traj, _MAX_BLOCK, max(1, _BLOCK_CAP_BYTES // per_traj))
    return int(b)


class _BlockNoise:
    """Noise for a block of trajectories, delivered in time-major chunks.

    Gaussian values are drawn per trajectory from its own substream in
    chunk-sized pieces; chunked draws concatenate to exactly the stream a
    one-shot ``sample_path`` would produce. Jump events are materialized up
    front (finite activity keeps them sparse).
    """

    def __init__(self, sc: Scenario, dt: float, n_steps: int, master_seed: int,
                 traj_ids: np.ndarray):
        self.n_steps = n_steps
        self.B = len(traj_ids)
        qw = sc.qwiener
        self.m = qw.n_modes if qw is not None else 0
        if self.m:
            self._gens = [substream(master_seed, ti, STREAM_GAUSS) for ti in traj_ids]
            self._std = qw.increment_std(dt)
        js = sc.jumps
        if js is not None and js.total_rate > 0:
            rows, steps, marks = [], [], []
            for b, ti in enumerate(traj_ids):
                gen = substream(master_seed, ti, STREAM_JUMP)
                k = int(gen.poisson(js.total_rate * dt * n_steps))
                pos = np.floor(gen.random(k) * n_steps).astype(np.int64)
                mk = js.marks.sample(gen, k)
                order = np.argsort(pos, kind="stable")
                rows.append(np.full(k, b, dtype=np.int64))
                steps.append(pos[order])
                marks.append(mk[order])
            rows = np.concatenate(rows)
            steps = np.concatenate(steps)
            marks = np.concatenate(marks) if len(marks) else np.zeros((0, js.marks.dim))
            order = np.argsort(steps, kind="stable")
            self.jrows, self.jsteps, self.jmarks = rows[order], steps[order], marks[order]
            self.joffsets = np.searchsorted(self.jsteps, np.arange(n_steps + 1))
        else:
            self.joffsets = None

    def gauss_chunk(self, k0: int, k1: int, time_major: bool = True,
                    scaled: bool = True):
        if not self.m:
            return None
        buf = np.empty((self.B, k1 - k0, self.m))
        for b, gen in enumerate(self._gens):
            buf[b] = gen.standard_normal((k1 - k0, self.m))
        if scaled:
            buf *= self._std
        if time_major:
            return np.ascontiguousarray(buf.transpose(1, 0, 2))
        return buf

    def jumps_at(self, k: int):
        if self.joffsets is None:
            return None, None
        a, b = self.joffsets[k], self.joffsets[k + 1]
        if a == b:
            return None, None
        return self.jrows[a:b], self.jmarks[a:b]


def _snapshot_steps(snapshot_times, dt: float, n_steps: int) -> np.ndarray:
    t = np.atleast_1d(np.asarray(snapshot_times, dtype=float))
    steps = np.rint(t / dt).astype(np.int64)
    if np.any(np.abs(steps * dt - t) > 1e-9 * np.maximum(1.0, np.abs(t))):
        raise ContractViolation("snapshot times must lie on the step grid")
    if np.any(steps < 0) or np.any(steps > n_steps):
        raise ContractViolation("snapshot times outside the simulated horizon")
    if np.any(np.diff(steps) <= 0):
        raise ContractViolation("snapshot times must be strictly increasing")
    return steps


def _run_blocked(n_traj: int, block: int, threads: int, worker) -> None:
    ranges = [(lo, min(lo + block, n_traj)) for lo in range(0, n_traj, block)]
    if threads <= 1 or len(ranges) == 1:
        for lo, hi in ranges:
            worker(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, lo, hi) for lo, hi in ranges]
        for f in futures:
            f.result()


# ---------------------------------------------------------------------------
# ensemble drivers


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

    def snapshot(self, time: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.snapshot_times - time)))
        if abs(self.snapshot_times[i] - time) > 1e-9 * max(1.0, abs(time)):
            raise ContractViolation(f"no snapshot recorded at t = {time}")
        if self.states is None:
            raise ContractViolation("ensemble recorded observables, not states")
        return self.states[i]


def simulate_ensemble(sc: Scenario, initial, dt: float, n_steps: int, n_traj: int,
                      master_seed: int, snapshot_times, observables: dict | None = None,
                      threads: int = 1) -> Ensemble:
    """Simulate independent trajectories; deterministic for any thread count.

    ``observables`` maps names to rowwise functions ``X -> (B,)``; when given,
    only those reductions are stored per snapshot instead of full states.
    """
    n_steps, n_traj = int(n_steps), int(n_traj)
    snap_steps = _snapshot_steps(snapshot_times, dt, n_steps)
    x0 = np.asarray(initial, dtype=float)
    if x0.ndim == 1:
        if x0.shape != (sc.dim,):
            raise ContractViolation("initial state does not match the scenario dimension")
    elif x0.shape != (n_traj, sc.dim):
        raise ContractViolation("per-trajectory initial states must be (n_traj, dim)")
    n_snap = len(snap_steps)
    if observables is None:
        states = np.empty((n_snap, n_traj, sc.dim))
        obs_out = {}
    else:
        states = None
        obs_out = {name: np.empty((n_snap, n_traj)) for name in observables}
    rt = _Runtime(sc, dt)
    block = _block_size(n_traj, sc.n_modes, sc.dim, 1)
    snap_lookup = {int(s): i for i, s in enumerate(snap_steps)}

    def record(i, lo, hi, X):
        if states is not None:
            states[i, lo:hi] = X
        else:
            for name, fn in observables.items():
                obs_out[name][i, lo:hi] = fn(X)

    chunk_plan = []
    for k0 in range(0, n_steps, _CHUNK_STEPS):
        k1 = min(k0 + _CHUNK_STEPS, n_steps)
        ends = sorted({s for s in snap_lookup if k0 < s < k1} | {k1})
        chunk_plan.append((k0, k1, ends))

    # State-independent coefficients let a whole segment collapse into one
    # contraction against precomputed propagator powers; same scheme, done as
    # a handful of large array operations instead of a per-step loop.
    fast = rt.linear_additive and sc.dim <= 8 and n_traj > 1 and n_steps > 0
    if fast:
        et = sc.op.semigroup_matrix(dt).T.copy()
        ct = sc.sigma.matrix.T.copy() if sc.sigma is not None else None
        std = sc.qwiener.increment_std(dt) if sc.qwiener is not None else None
        dc = rt.drift.value if isinstance(rt.drift, ConstantDrift) else None
        qcache = {}
        for k0, k1, ends in chunk_plan:
            a = k0
            for b in ends:
                if b - a and (b - a) not in qcache:
                    L = b - a
                    q = np.empty((L, sc.dim, sc.dim))
                    q[L - 1] = et
                    for j in range(L - 2, -1, -1):
                        q[j] = q[j + 1] @ et
                    dterm = dt * (dc @ q.sum(axis=0)) if dc is not None else None
                    w = None
                    if ct is not None:
                        # raw-noise weights: mode scaling folded in up front
                        w = (np.matmul(ct, q) * std[None, :, None]).reshape(L * ct.shape[0], sc.dim)
                    qcache[L] = (q[0].copy(), w, dterm)
                a = b

    def worker(lo, hi):
        ids = np.arange(lo, hi, dtype=np.int64)
        X = np.ascontiguousarray(np.broadcast_to(x0 if x0.ndim == 1 else x0[lo:hi],
                                                 (hi - lo, sc.dim)).astype(float))
        noise = _BlockNoise(sc, dt, n_steps, master_seed, ids)
        if 0 in snap_lookup:
            record(snap_lookup[0], lo, hi, X)
        for k0, k1, ends in chunk_plan:
            if fast:
                chunk = noise.gauss_chunk(k0, k1, time_major=False, scaled=False)
                a = k0
                for b in ends:
                    L = b - a
                    if L:
                        q0, w, dterm = qcache[L]
                        xn = X @ q0
                        if chunk is not None and w is not None:
                            m = chunk.shape[2]
                            piece = chunk[:, a - k0:b - k0, :].reshape(hi - lo, L * m)
                            xn += piece @ w
                        if dterm is not None:
                            xn += dterm
                        X = xn
                    a = b
                    i = snap_lookup.get(b)
                    if i is not None:
                        rt.assert_finite(X, b - 1, ids)
                        record(i, lo, hi, X)
                rt.assert_finite(X, k1 - 1, ids)
                continue
            chunk = noise.gauss_chunk(k0, k1)
            for k in range(k0, k1):
                xi = chunk[k - k0] if chunk is not None else None
                jr, jm = noise.jumps_at(k)
                i = snap_lookup.get(k + 1)
                X = rt.advance(X, xi, jr, jm, k, ids,
                               check=(i is not None or k + 1 == k1))
                if i is not None:
                    record(i, lo, hi, X)

    _run_blocked(n_traj, block, threads, worker)
    return Ensemble(scenario_id=sc.scenario_id, dt=float(dt), n_steps=n_steps,
                    n_traj=n_traj, master_seed=int(master_seed),
                    snapshot_times=snap_steps * float(dt), snapshot_steps=snap_steps,
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
    n_steps, n_traj = int(n_steps), int(n_traj)
    snap_steps = _snapshot_steps(snapshot_times, dt, n_steps)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    space, P1 = sc.space, sc.P1
    rt = _Runtime(sc, dt)
    n_snap = len(snap_steps)
    gap2 = np.empty((n_snap, n_traj))
    xt = np.empty((n_traj, sc.dim)) if keep_terminal else None
    yt = np.empty((n_traj, sc.dim)) if keep_terminal else None
    block = _block_size(n_traj, sc.n_modes, sc.dim, 2)
    n_blocks = math.ceil(n_traj / block)
    psum = np.zeros((n_blocks, n_steps + 1))
    psq = np.zeros((n_blocks, n_steps + 1))
    snap_lookup = {int(s): i for i, s in enumerate(snap_steps)}
    p1m = P1.matrix.T.copy()

    def worker(lo, hi):
        bi = lo // block
        ids = np.arange(lo, hi, dtype=np.int64)
        Xa = np.tile(x, (hi - lo, 1))
        Xb = np.tile(y, (hi - lo, 1))
        noise = _BlockNoise(sc, dt, n_steps, master_seed, ids)

        def reduce_step(k, A, B_):
            v = space.norm2_rows((A - B_) @ p1m)
            psum[bi, k] = v.sum()
            psq[bi, k] = (v * v).sum()
            i = snap_lookup.get(k)
            if i is not None:
                gap2[i, lo:hi] = space.norm2_rows(A - B_)

        reduce_step(0, Xa, Xb)
        for k0 in range(0, n_steps, _CHUNK_STEPS):
            k1 = min(k0 + _CHUNK_STEPS, n_steps)
            chunk = noise.gauss_chunk(k0, k1)
            for k in range(k0, k1):
                xi = chunk[k - k0] if chunk is not None else None
                jr, jm = noise.jumps_at(k)
                Xa = rt.advance(Xa, xi, jr, jm, k, ids)
                Xb = rt.advance(Xb, xi, jr, jm, k, ids)
                reduce_step(k + 1, Xa, Xb)
        if keep_terminal:
            xt[lo:hi] = Xa
            yt[lo:hi] = Xb

    _run_blocked(n_traj, block, threads, worker)
    mean = psum.sum(axis=0) / n_traj
    var = np.maximum(psq.sum(axis=0) / n_traj - mean**2, 0.0)
    se = np.sqrt(var / n_traj)
    return PairEnsembleResult(dt=float(dt), n_steps=n_steps, n_traj=n_traj,
                              step_times=np.arange(n_steps + 1) * float(dt),
                              p1gap2_mean=mean, p1gap2_se=se,
                              snapshot_times=snap_steps * float(dt), gap2=gap2,
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

    At lockstep index j both systems consume the parent increment tau+j, so
    ``Y_j`` sees exactly the stream a shifted view would replay.
    """
    tau_steps, n_steps, n_traj = int(tau_steps), int(n_steps), int(n_traj)
    if tau_steps < 0:
        raise ContractViolation("tau must be nonnegative")
    snap_steps = _snapshot_steps(snapshot_times, dt, n_steps)
    x = np.asarray(x, dtype=float)
    space = sc.space
    rt = _Runtime(sc, dt)
    n_snap = len(snap_steps)
    gap2 = np.empty((n_snap, n_traj))
    yt = np.empty((n_traj, sc.dim)) if keep_terminal else None
    xt = np.empty((n_traj, sc.dim)) if keep_terminal else None
    total_steps = n_steps + tau_steps
    block = _block_size(n_traj, sc.n_modes, sc.dim, 2)
    snap_lookup = {int(s): i for i, s in enumerate(snap_steps)}

    def worker(lo, hi):
        ids = np.arange(lo, hi, dtype=np.int64)
        X = np.tile(x, (hi - lo, 1))
        noise = _BlockNoise(sc, dt, total_steps, master_seed, ids)
        chunk, c0 = None, -1

        def xi_at(k):
            nonlocal chunk, c0
            if sc.n_modes == 0:
                return None
            base = (k // _CHUNK_STEPS) * _CHUNK_STEPS
            if base != c0:
                chunk = noise.gauss_chunk(base, min(base + _CHUNK_STEPS, total_steps))
                c0 = base
            return chunk[k - c0]

        for k in range(tau_steps):
            jr, jm = noise.jumps_at(k)
            X = rt.advance(X, xi_at(k), jr, jm, k, ids)
        Y = np.tile(x, (hi - lo, 1))
        i = snap_lookup.get(0)
        if i is not None:
            gap2[i, lo:hi] = space.norm2_rows(Y - X)
        for j in range(n_steps):
            k = tau_steps + j
            xi = xi_at(k)
            jr, jm = noise.jumps_at(k)
            X = rt.advance(X, xi, jr, jm, k, ids)
            Y = rt.advance(Y, xi, jr, jm, j, ids)
            i = snap_lookup.get(j + 1)
            if i is not None:
                gap2[i, lo:hi] = space.norm2_rows(Y - X)
        if keep_terminal:
            yt[lo:hi] = Y
            xt[lo:hi] = X

    _run_blocked(n_traj, block, threads, worker)
    return CoupledEnsembleResult(dt=float(dt), tau_steps=tau_steps, n_steps=n_steps,
                                 n_traj=n_traj, snapshot_times=snap_steps * float(dt),
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
    cert = sc.certificate
    if cert is None or cert.epsilon <= 0:
        raise HypothesisViolated("epsilon-positive",
                                 "the stability estimate needs epsilon = 2 alpha - L_sigma - L_gamma > 0")
    res = simulate_pair_ensemble(sc, x, y, dt, n_steps, n_traj, seed, snapshot_times,
                                 threads=threads)
    space = sc.space
    gap0 = space.norm2(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    eps, coef = cert.epsilon, 2.0 * (cert.alpha + cert.beta_const)
    times = res.snapshot_times
    lhs_mean = res.gap2.mean(axis=1)
    lhs_se = res.gap2.std(axis=1, ddof=1) / math.sqrt(res.n_traj) if res.n_traj > 1 \
        else np.zeros_like(lhs_mean)
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
