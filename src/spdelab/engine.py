"""Exponential-Euler time stepping of the mild formulation

    X_{k+1} = S(dt) [ X_k + dt (F(X_k) - comp) + sigma(X_k) dW_k
                      + sum_{jumps in step k} mark ]

with all integrands frozen at the left endpoint and propagated by the
full-step semigroup; jumps are additive, so ``comp`` is the rate times the
mark mean. Every scenario takes this one step: a coefficient hook
gives the drift and noise rows (the diffusion's own ``fused`` method if it
has one, else ``drift`` and ``sigma.apply``), and the step writes the
propagated update back into X.

Every ensemble runs on one lockstep core: systems that share each
trajectory's noise, each started at a given grid step. Independent runs from
several initial states are one system per start, all started together; a
common-noise pair is two started together, and the shifted coupling of a
trajectory with its own future two started tau steps apart. The core steps
one step at a time, except for systems that all start together and are
reduced only at snapshots, with state-independent coefficients, no jumps, a
dense propagator, dim <= 8, n_traj > 1 and n_steps > 0: there the steps
between two stops (snapshots and chunk ends) collapse into one contraction
against precomputed propagator powers. The noise of such a segment is a
fixed linear map ``w`` of the standard normals stepping would draw, so it is
drawn from its exact law N(0, w^T w) as ``xi @ R``, with ``R`` the
triangular QR factor of ``w`` and ``xi`` min(L m, dim) standard normals from
the trajectory's STREAM_SEGMENT substream; that noise term is computed once
and shared by every system. Every recorded state keeps the law of the
stepping scheme, but not its numbers, which depend on the segment plan. The
pair driver reduces at every step and the coupled driver starts its systems
tau > 0 steps apart, so both keep stepping, and so does a one-trajectory
run, which stays bit-equal to manual stepping. Every state that is recorded
or reduced, and every state that ends a noise chunk of _CHUNK_STEPS steps,
is first checked against BLOWUP_NORM.

Blocks: trajectories are stepped in blocks of one size (the last block may
be shorter), and up to ``threads`` workers take the blocks in turn. The
collapse takes its blocks in order on the calling thread: its work is the
per-trajectory draw loop, which holds the interpreter lock, so a second
thread would only add lock handoffs. Besides
_MAX_BLOCK trajectories, a block has two caps. Its noise chunk and states
fit in _BLOCK_CAP_BYTES (a collapse draw is at most a chunk's normals). And each system's states in it hold at most
_BLOCK_STATE_VALUES = 2**16 numbers (512 KiB), so the few state-sized arrays
of a step stay in a 2 MiB L2 cache. On a 2,048-point forward-curve grid that
is 32 curves per block, which also gives a second thread work on runs of a
few dozen curves. At dim <= 8 the state cap is at least _MAX_BLOCK, so it
never binds there. The plan depends on the trajectory count, the dimension,
the noise modes and the number of systems, never on ``threads``.

Determinism: every trajectory owns Philox substreams keyed by
``(master_seed, trajectory_index, stream)``: the Gaussian and jump streams
when stepping, the segment stream alone on the collapse. A block hashes its
trajectories' keys in one ``stream_keys`` pass and draws from one generator,
whose state is swapped per trajectory, so every trajectory reads exactly
the numbers of its own ``substream``. Blocks and threads only change the
evaluation schedule, never the numbers. Reductions across trajectories are
assembled in fixed block order, and the block plan does not depend on the
thread count.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BudgetExceeded, ContractViolation, HypothesisViolated, NumericalBlowup
from .gdc import GdcCertificate
from .hilbert import HBETA_GRID, MATRIX_EXP, HilbertSpace, OperatorModel, Projection
from .noise import (JumpSpec, QWienerSpec, STREAM_GAUSS, STREAM_JUMP, STREAM_SEGMENT,
                    jump_draw, stream_keys)

BLOWUP_NORM = 1e12
_CHUNK_STEPS = 2048
_BLOCK_CAP_BYTES = 192 * 2**20
_MAX_BLOCK = 8192
_BLOCK_STATE_VALUES = 2**16   # state values per system in a block: 512 KiB, L2-sized
MAX_THREADS = 64              # most worker threads of one run
MAX_STEPS = 10**9             # most grid steps of one run
MAX_TRAJ = 10**8              # most trajectories of one run
LIP_SEED = 61_003
LIP_PAIRS = 200               # random pairs of the Lipschitz audit
LIP_CURVE_TERMS = 3           # exponentials in each smooth probe curve on a grid
LIP_SLACK = 1.01              # relative slack of the audited Lipschitz constants


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
class Scenario:
    """One SPDE instance: operator, coefficients, noise and its certificate;
    ``qwiener`` holds the mode variances, ``sigma.columns(x)`` each mode's direction.
    It declares no structural hypothesis: the lab's audits measure them."""

    op: OperatorModel
    P1: Projection
    qwiener: QWienerSpec | None = None
    drift: "callable | None" = None          # rows -> rows
    sigma: "object | None" = None            # .apply(X, xi), .columns(x), optional .fused
    jumps: JumpSpec | None = None
    certificate: GdcCertificate | None = None
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

    @property
    def state_dependent(self) -> str | None:
        """The first coefficient that may depend on the state, by its document
        key (``F`` or ``sigma``), or None when both are constant; additive
        jumps never depend on it."""
        if self.drift is not None and not isinstance(self.drift, ConstantDrift):
            return "F"
        if self.sigma is not None and not isinstance(self.sigma, ConstantSigma):
            return "sigma"
        return None

    def contractive_certificate(self) -> GdcCertificate:
        """The certificate if epsilon > 0, the stability-estimate hypothesis."""
        if self.certificate is None or not self.certificate.contractive:
            raise HypothesisViolated("epsilon-positive",
                                     "need a certificate with epsilon = 2 alpha - L_sigma > 0")
        return self.certificate

    def sigma_gap2(self, x, y) -> float:
        """||sigma(x) - sigma(y)||_HS^2 = sum_j lambda_j ||sigma(x) e_j - sigma(y) e_j||^2."""
        dc = self.sigma.columns(x) - self.sigma.columns(y)
        return float(self.qwiener.eigenvalues @ self.space.norm2_rows(dc.T))

    def lipschitz_audit(self) -> dict:
        """Spot-check the declared L_F and L_sigma on random pairs: standard
        normal vectors, or on an hbeta grid smooth curves
        c + sum_k a_k e^{-b_k x} with c in (0, 0.1), a_k in (-0.1, 0.1) and
        b_k in (0, beta), whose differences the grid resolves. Every jump is
        additive, so the jump map has no Lipschitz constant to check."""
        if self.certificate is None:
            raise ContractViolation("lipschitz audit needs a certificate with declared constants")
        lip = self.certificate.lipschitz
        gen = np.random.Generator(np.random.Philox(LIP_SEED))
        space = self.space

        def probes():
            if space.kind != HBETA_GRID:
                return gen.standard_normal((LIP_PAIRS, self.dim))
            shape = (LIP_PAIRS, 1)
            curves = gen.uniform(0.0, 0.1, shape)
            for _ in range(LIP_CURVE_TERMS):
                a = gen.uniform(-0.1, 0.1, shape)
                curves = curves + a * np.exp(-gen.uniform(0.0, space.beta, shape) * space.grid)
            return curves

        X, Y = probes(), probes()
        gap2 = space.norm2_rows(X - Y)
        report = {}
        if self.drift is not None:
            r = space.norm2_rows(self.drift(X) - self.drift(Y)) / gap2
            report["L_F"] = float(np.max(r))
            if report["L_F"] > lip.L_F * LIP_SLACK + 1e-12:
                raise HypothesisViolated("lipschitz-F", f"measured {report['L_F']:.4g} > declared {lip.L_F:.4g}")
        if self.sigma is not None and self.qwiener is not None:
            worst = max(self.sigma_gap2(x, y) / g2 for x, y, g2 in zip(X, Y, gap2))
            report["L_sigma"] = worst
            if worst > lip.L_sigma * LIP_SLACK + 1e-12:
                raise HypothesisViolated("lipschitz-sigma", f"measured {worst:.4g} > declared {lip.L_sigma:.4g}")
        return report


# ---------------------------------------------------------------------------
# stepping kernel


class Workspace(threading.local):
    """Scratch arrays for one thread's steps, reused from step to step; every
    thread that uses a Workspace sees arrays of its own.

    The step builds ``X + dt F`` in the first array. A coefficient hook may
    return its drift rows there, for the step to overwrite, and keeps any
    other rows it returns in the arrays after it.
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
    """Per-(scenario, dt) plan: precomputed propagator and coefficient hook,
    plus one step workspace per thread, freed with the plan."""

    def __init__(self, sc: Scenario, dt: float):
        if dt <= 0:
            raise ContractViolation("dt must be positive")
        self.sc = sc
        self.dt = float(dt)
        # the hook holds no reference to the plan, which is freed without the gc
        self.terms = getattr(sc.sigma, "fused", None) or partial(self._terms, sc.drift, sc.sigma)
        self.jumps = sc.jumps
        self._et = sc.op.semigroup_matrix(self.dt).T.copy() \
            if sc.op.semigroup_mode == MATRIX_EXP else None
        self.ws = Workspace()

    @staticmethod
    def _terms(drift, sigma, X, xi, ws):
        """The hook built from ``drift`` and ``sigma.apply``: drift and noise
        rows, each None when absent."""
        return (None if drift is None else drift(X),
                None if sigma is None or xi is None else sigma.apply(X, xi))

    def propagate(self, U, out=None):
        if self._et is not None:
            return np.matmul(U, self._et, out=out)
        return self.sc.op.apply_semigroup_rows(self.dt, U, out=out)

    def advance(self, X, xi, jrows, jmarks):
        """One step of the block ``X``, written back into ``X``, so callers
        pass a state array they own. The result is not checked: callers
        check it with ``assert_finite``."""
        dt = self.dt
        dr, nz = self.terms(X, xi, self.ws)
        if dr is None:
            upd = X.copy()
        else:       # X + dt F in the workspace's first array, which may hold dr
            upd = self.ws.arrays(1, X.shape)[0]
            np.add(X, np.multiply(dr, dt, out=upd), out=upd)
        if nz is not None:
            upd += nz
        if self.jumps is not None:
            upd -= dt * self.jumps.compensator_rows(X)
            if jrows is not None and len(jrows):
                np.add.at(upd, jrows, jmarks)
        return self.propagate(upd, out=X)

    @staticmethod
    def assert_finite(out, step_index, traj_ids, last_passed=None):
        """Raise ``NumericalBlowup`` if a row of ``out`` is past BLOWUP_NORM;
        ``last_passed`` is the step of the previous check these rows passed."""
        if not np.abs(out).max() < BLOWUP_NORM:
            bad = ~(np.abs(out).max(axis=1) < BLOWUP_NORM)
            raise NumericalBlowup(step_index, traj_ids[bad].tolist(), last_passed)

    @property
    def linear_additive(self) -> bool:
        """True when one chunk of steps collapses to a single contraction:
        state-independent coefficients, no jumps, dense propagator."""
        sc = self.sc
        return (self.jumps is None and sc.state_dependent is None
                and sc.op.semigroup_mode == MATRIX_EXP)


# ---------------------------------------------------------------------------
# lockstep core


def _block_size(n_traj: int, n_modes: int, dim: int, n_systems: int) -> int:
    """Trajectories per block: the smallest of ``n_traj``, _MAX_BLOCK, those
    whose noise chunk and states fit _BLOCK_CAP_BYTES, and those whose states
    of one system hold at most _BLOCK_STATE_VALUES numbers. The last cap
    keeps a step's state-sized arrays in L2 and splits large-state runs into
    enough blocks for several threads; ``threads`` never enters, so results
    do not depend on it."""
    per_traj = 8 * (2 * _CHUNK_STEPS * max(n_modes, 1) + 6 * dim * n_systems)
    b = min(n_traj, _MAX_BLOCK, max(1, _BLOCK_CAP_BYTES // per_traj),
            max(1, _BLOCK_STATE_VALUES // dim))
    return int(b)


class _BlockNoise:
    """Noise for a block of trajectories, from one Philox generator.

    Every trajectory's streams are keyed by one ``stream_keys`` pass per
    block. Before it draws for a trajectory, the generator takes that
    trajectory's saved state, or its key at counter 0, so each draw reads
    the trajectory's own stream, as its ``substream`` would. Stepping draws
    the STREAM_GAUSS increments in chunk-sized pieces, which concatenate to
    exactly the stream a one-shot ``sample_path`` would produce. The
    collapse (``segments``) draws instead the standard normals of its
    segment noise factors from the STREAM_SEGMENT stream. Jump events are
    materialized up front (finite activity keeps them sparse), ordered by
    step, then by trajectory, then by draw.
    """

    def __init__(self, sc: Scenario, dt: float, n_steps: int, master_seed: int,
                 traj_ids: np.ndarray, segments: bool = False):
        self._gen = gen = np.random.Generator(np.random.Philox(key=0))
        fresh = gen.bit_generator.state           # counter 0, empty buffer

        def start(key):
            return {**fresh, "state": {"counter": fresh["state"]["counter"], "key": key}}

        qw = sc.qwiener
        self.m = qw.n_modes if qw is not None else 0
        self.n_steps = n_steps
        if self.m:
            tag = STREAM_SEGMENT if segments else STREAM_GAUSS
            self._states = [start(k) for k in stream_keys(master_seed, traj_ids, tag)]
            self._std = qw.increment_std(dt)
        js = sc.jumps
        self.joffsets = None
        if js is not None:
            draws = []
            for key in stream_keys(master_seed, traj_ids, STREAM_JUMP):
                gen.bit_generator.state = start(key)
                draws.append(jump_draw(js, dt, n_steps, gen))
            steps = np.concatenate([k for k, _ in draws])
            rows = np.repeat(np.arange(len(draws), dtype=np.int64), [len(k) for k, _ in draws])
            order = np.argsort(steps, kind="stable")
            self.jrows, self.jmarks = rows[order], np.concatenate([m for _, m in draws])[order]
            self.joffsets = np.searchsorted(steps[order], np.arange(n_steps + 1))

    def normals(self, n: int, more: bool) -> np.ndarray:
        """The next ``n`` standard normals of each trajectory, ``(B, n)``.
        With ``more``, a later draw follows, so each state is kept."""
        gen, states = self._gen, self._states
        bitgen, buf = gen.bit_generator, np.empty((len(states), n))
        for b, st in enumerate(states):
            bitgen.state = st
            gen.standard_normal(out=buf[b])
            if more:
                states[b] = bitgen.state
        return buf

    def gauss_chunk(self, k0: int, k1: int):
        """Increments of steps ``k0:k1``, time-major and scaled."""
        if not self.m:
            return None
        B = len(self._states)
        buf = self.normals((k1 - k0) * self.m, k1 < self.n_steps).reshape(B, k1 - k0, self.m)
        return np.multiply(buf.transpose(1, 0, 2), self._std, out=np.empty((k1 - k0, B, self.m)))

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
    snapshots or, with ``every_step``, every step. Systems that all start
    together and stop only at snapshots take the collapse when the scenario
    allows it (see the module docstring).
    """

    def __init__(self, sc: Scenario, dt: float, systems, n_steps: int, n_traj: int,
                 master_seed: int, snapshot_times, every_step: bool = False):
        self.n_steps, self.n_traj = n_steps, n_traj = int(n_steps), int(n_traj)
        self.starts = [int(k) for _, k in systems]
        if not self.starts:
            raise ContractViolation("need at least one initial state")
        if n_traj < 1:
            raise ContractViolation("n_traj must be >= 1")
        if n_traj > MAX_TRAJ:
            raise BudgetExceeded(f"{n_traj} trajectories exceed the budget of {MAX_TRAJ}")
        if n_steps < 0:
            raise ContractViolation("n_steps must be >= 0")
        if n_steps + max(self.starts) > MAX_STEPS:
            raise BudgetExceeded(f"{n_steps + max(self.starts)} grid steps exceed the "
                                 f"budget of {MAX_STEPS}")
        if min(self.starts) < 0:
            raise ContractViolation("tau_steps must be >= 0")
        t = np.atleast_1d(np.asarray(snapshot_times, dtype=float))
        if not np.all(np.abs(t / dt) <= n_steps + 1):      # before the integer cast
            raise ContractViolation("snapshot times outside the simulated horizon")
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
        if not np.max([np.abs(x).max() for x in self.initial]) < BLOWUP_NORM:   # nan fails too
            raise ContractViolation(f"initial states must be below the blow-up bound {BLOWUP_NORM:g}")
        self.sc, self.master_seed = sc, int(master_seed)
        self.rt = rt = _Runtime(sc, dt)
        self.t0 = t0 = max(self.starts)         # grid step = that clock's step + t0
        self.lookup = {int(s) + t0: i for i, s in enumerate(snaps)}
        self.stops = set(range(t0, t0 + n_steps + 1)) if every_step else set(self.lookup)
        self.block = _block_size(n_traj, sc.n_modes, sc.dim, len(systems))
        # the linear-additive collapse (see the module docstring)
        self.fast = (len(set(self.starts)) == 1 and not every_step and rt.linear_additive
                     and sc.dim <= 8 and n_traj > 1 and n_steps > 0)
        # chunks [k0, k1, ends, draw]: the stops in steps k0:k1 and, on the
        # collapse, how many standard normals each trajectory draws before
        # the chunk, for its segments and those of the next chunks up to the
        # next draw. A draw holds at most a raw chunk's _CHUNK_STEPS m values,
        # so every shipped run draws once per trajectory.
        self.weights = {}
        self.chunks = []
        budget, head = _CHUNK_STEPS * max(sc.n_modes, 1), None
        for k0 in range(0, t0 + n_steps, _CHUNK_STEPS):
            k1 = min(k0 + _CHUNK_STEPS, t0 + n_steps)
            if not self.fast:
                self.chunks.append([k0, k1, range(k0 + 1, k1 + 1), 0])
                continue
            ends = sorted({s for s in self.stops if k0 < s < k1} | {k1})
            draw = 0
            for a, b in zip([k0, *ends], ends):
                if b - a not in self.weights:
                    self.weights[b - a] = self._collapse_weights(b - a)
                draw += self.weights[b - a][3]
            if head is not None and head[3] + draw <= budget:
                head[3], draw = head[3] + draw, 0
            self.chunks.append([k0, k1, ends, draw])
            if draw:
                head = self.chunks[-1]
        # a trajectory's generator state is read back only if a later draw follows
        self.last_draw = head[0] if head is not None else None

    def _collapse_weights(self, L: int):
        """Propagator power, noise factor ``R``, drift term and ``len(R)`` of
        ``L`` steps. The noise those steps add is ``z @ w`` for the ``L m``
        standard normals ``z`` they would draw, so its law is
        ``N(0, w^T w)``. ``R``, the triangular factor of ``w = QR``, has the
        same Gram matrix and ``min(L m, dim)`` rows, so ``xi @ R`` for that
        many standard normals ``xi`` draws the same law exactly. A zero
        column of ``w`` (a noise-free coordinate) stays a zero column of
        ``R`` under Householder QR."""
        sc, rt = self.sc, self.rt
        q = np.empty((L, sc.dim, sc.dim))
        q[L - 1] = rt._et
        for j in range(L - 2, -1, -1):
            q[j] = q[j + 1] @ rt._et
        dterm = rt.dt * (sc.drift.value @ q.sum(axis=0)) if sc.drift is not None else None
        R = None
        if sc.sigma is not None and sc.n_modes:
            # raw-noise weights, mode scaling folded in up front
            ct, std = sc.sigma.matrix.T.copy(), sc.qwiener.increment_std(rt.dt)
            w = (np.matmul(ct, q) * std[None, :, None]).reshape(L * ct.shape[0], sc.dim)
            R = np.linalg.qr(w, mode="r")
        return q[0].copy(), R, dterm, 0 if R is None else len(R)

    def _collapse(self, states, xi, L: int):
        """``states`` advanced over a segment of ``L`` steps, with ``xi`` the
        segment's standard normals, one row per trajectory (None without
        noise). The noise term ``xi @ R`` is computed once and added to each
        system's propagated state, the same sums in the same order as for one
        system, so each system's rows do not depend on the others."""
        q0, R, dterm, _ = self.weights[L]
        nz = xi @ R if xi is not None else None
        out = []
        for X in states:
            xn = X @ q0
            if nz is not None:
                xn += nz
            if dterm is not None:
                xn += dterm
            out.append(xn)
        return out

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
            noise = _BlockNoise(sc, rt.dt, t0 + self.n_steps, self.master_seed, ids, fast)
            if t0 == 0 and 0 in stops:
                reduce(0, lookup.get(0), lo, hi, states)
            normals, off = None, 0
            for k0, k1, ends, draw in self.chunks:
                if draw:
                    normals, off = noise.normals(draw, k0 != self.last_draw), 0
                chunk = None if fast else noise.gauss_chunk(k0, k1)
                a = k0
                for b in ends:
                    if fast:
                        r = self.weights[b - a][3]
                        xi = normals[:, off:off + r] if r else None
                        states, off = self._collapse(states, xi, b - a), off + r
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
        if threads <= 1 or len(ranges) == 1 or fast:
            for lo, hi in ranges:
                worker(lo, hi)
        else:
            with ThreadPoolExecutor(max_workers=min(threads, len(ranges))) as pool:
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
    snapshot_times: np.ndarray
    states: np.ndarray | None                 # (n_snap, n_traj, dim) or None
    observables: dict                         # name -> (n_snap, n_traj)


def simulate_ensembles(sc: Scenario, initials, dt: float, n_steps: int, n_traj: int,
                       master_seed: int, snapshot_times, observables: dict | None = None,
                       threads: int = 1) -> list[Ensemble]:
    """Simulate independent trajectories from each initial state of
    ``initials`` under common noise: trajectory ``j`` of every ensemble reads
    trajectory ``j``'s substreams, which are drawn once. Each ensemble equals,
    bit for bit, a one-start run with the same seed; deterministic for any
    thread count.

    ``observables`` maps names to rowwise functions ``X -> (B,)``; when given,
    only those reductions are stored per snapshot instead of full states.
    """
    ls = _Lockstep(sc, dt, [(x, 0) for x in initials], n_steps, n_traj, master_seed,
                   snapshot_times)
    shape = (len(ls.snap_steps), ls.n_traj)
    states = [None if observables is not None else np.empty((*shape, sc.dim))
              for _ in ls.initial]
    obs_out = [{name: np.empty(shape) for name in observables or {}} for _ in ls.initial]

    def record(k, i, lo, hi, xs):
        for X, st, obs in zip(xs, states, obs_out):
            if st is not None:
                st[i, lo:hi] = X
            for name, fn in (observables or {}).items():
                obs[name][i, lo:hi] = fn(X)

    ls.run(record, threads)
    return [Ensemble(scenario_id=sc.scenario_id, dt=float(dt), n_steps=ls.n_steps,
                     n_traj=ls.n_traj, snapshot_times=ls.snap_steps * float(dt),
                     states=st, observables=obs)
            for st, obs in zip(states, obs_out)]


def simulate_ensemble(sc: Scenario, initial, dt: float, n_steps: int, n_traj: int,
                      master_seed: int, snapshot_times, observables: dict | None = None,
                      threads: int = 1) -> Ensemble:
    """Simulate independent trajectories from one initial state (see
    ``simulate_ensembles``)."""
    return simulate_ensembles(sc, [initial], dt, n_steps, n_traj, master_seed,
                              snapshot_times, observables, threads)[0]


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
    return CoupledEnsembleResult(dt=float(dt), n_steps=n_steps, n_traj=n_traj,
                                 snapshot_times=ls.snap_steps * float(dt),
                                 coupling_gap2=gap2, y_terminal=yt, x_terminal=xt)


# ---------------------------------------------------------------------------
# diagnostics built on the drivers


def lyapunov_probe(sc: Scenario, x, y) -> float:
    """Value of the pairwise Lyapunov form

    2 <A(x-y) + F(x) - F(y), x-y> + ||sigma(x)-sigma(y)||_{HS}^2;

    additive jumps add no term.
    """
    space = sc.space
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    val = 2.0 * space.inner(sc.op.apply_generator_rows(d)[0], d)
    if sc.drift is not None:
        df = sc.drift(x[None, :])[0] - sc.drift(y[None, :])[0]
        val += 2.0 * space.inner(df, d)
    if sc.sigma is not None and sc.qwiener is not None:
        val += sc.sigma_gap2(x, y)
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
                           violations=violations, slack=slack,
                           ok=bool(np.all(violations <= slack)))


# rowwise observable builders used by drivers and the CLI


def obs_coordinate(i: int):
    return lambda X: X[:, i].copy()

def obs_norm2(space: HilbertSpace, center=None):
    if center is None:
        return lambda X: space.norm2_rows(X)
    c = np.asarray(center, dtype=float)
    return lambda X: space.norm2_rows(X - c)

def obs_projected_norm2(space: HilbertSpace, P: Projection):
    m = P.matrix.T.copy()
    return lambda X: space.norm2_rows(X @ m)
