"""Driving noise: Q-Wiener increments in a truncated eigenbasis and
finite-activity compensated Poisson jumps, recorded on a time grid so paths
can be replayed bit-exactly and viewed under a time shift.

Reproducibility contract: every random stream is a Philox generator keyed by
``(master_seed, trajectory_index, stream_tag)`` through ``SeedSequence`` spawn
keys, so regeneration never depends on execution order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation

STREAM_GAUSS = 0
STREAM_JUMP = 1
QUAD_SEED = 90_210            # fixed seed for Monte-Carlo mark quadratures

POINT_MASS = "point-mass"
GAUSSIAN_MARK = "gaussian-mark"
UNIFORM_MARK = "uniform-mark"


def substream(master_seed: int, traj_index: int, tag: int) -> np.random.Generator:
    """Counter-based generator for one (trajectory, stream) pair."""
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(traj_index), int(tag)))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True, eq=False)
class MarkSampler:
    """Distribution of jump marks; tagged so scenario files can declare it."""

    kind: str
    point: np.ndarray | None = None        # point-mass atom
    mean: np.ndarray | None = None         # gaussian-mark
    cov_diag: np.ndarray | None = None     # gaussian-mark variances
    lo: np.ndarray | None = None           # uniform-mark bounds
    hi: np.ndarray | None = None
    quad_nodes: int = 4096

    def __post_init__(self):
        if self.kind == POINT_MASS:
            if self.point is None:
                raise ContractViolation("point-mass sampler needs its atom")
            object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        elif self.kind == GAUSSIAN_MARK:
            if self.mean is None or self.cov_diag is None:
                raise ContractViolation("gaussian-mark sampler needs mean and variances")
            m = np.asarray(self.mean, dtype=float)
            v = np.asarray(self.cov_diag, dtype=float)
            if v.shape != m.shape or np.any(v < 0):
                raise ContractViolation("gaussian-mark variances must be nonnegative, same shape as mean")
            object.__setattr__(self, "mean", m)
            object.__setattr__(self, "cov_diag", v)
        elif self.kind == UNIFORM_MARK:
            if self.lo is None or self.hi is None:
                raise ContractViolation("uniform-mark sampler needs lo and hi")
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            if lo.shape != hi.shape or np.any(hi < lo):
                raise ContractViolation("uniform-mark bounds must satisfy lo <= hi")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        else:
            raise ContractViolation(f"unknown mark distribution {self.kind!r}")

    @property
    def dim(self) -> int:
        if self.kind == POINT_MASS:
            return len(self.point)
        if self.kind == GAUSSIAN_MARK:
            return len(self.mean)
        return len(self.lo)

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == POINT_MASS:
            return np.tile(self.point, (n, 1))
        if self.kind == GAUSSIAN_MARK:
            z = gen.standard_normal((n, self.dim))
            return self.mean + z * np.sqrt(self.cov_diag)
        return self.lo + gen.random((n, self.dim)) * (self.hi - self.lo)

    def mark_mean(self) -> np.ndarray:
        if self.kind == POINT_MASS:
            return self.point.copy()
        if self.kind == GAUSSIAN_MARK:
            return self.mean.copy()
        return 0.5 * (self.lo + self.hi)

    @property
    def is_atomic(self) -> bool:
        return self.kind == POINT_MASS

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """Probability-weighted nodes for integrals against the mark law.

        Atoms are exact; the continuous kinds use a fixed-seed Monte-Carlo
        rule so every evaluation of the same sampler is identical.
        """
        if self.kind == POINT_MASS:
            return np.array([1.0]), self.point[None, :]
        gen = np.random.Generator(np.random.Philox(QUAD_SEED))
        nodes = self.sample(gen, self.quad_nodes)
        w = np.full(self.quad_nodes, 1.0 / self.quad_nodes)
        return w, nodes


@dataclass(frozen=True, eq=False)
class QWienerSpec:
    """Trace-class covariance in a truncated eigenbasis.

    ``embedding @ eigenvectors`` gives the per-mode columns the diffusion
    multiplies; stored increments carry variance ``dt * eigenvalue`` per mode.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    embedding: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors, dtype=float)
        emb = np.asarray(self.embedding, dtype=float)
        if np.any(lam < 0):
            raise ContractViolation("Q eigenvalues must be nonnegative")
        if vec.ndim != 2 or vec.shape[1] != len(lam):
            raise ContractViolation("eigenvector matrix must have one column per eigenvalue")
        gram = vec.T @ vec
        if np.abs(gram - np.eye(len(lam))).max() > 1e-10:
            raise ContractViolation("Q eigenvectors must be orthonormal columns")
        if emb.shape[1] != vec.shape[0]:
            raise ContractViolation("embedding must map the eigenbasis space")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)
        object.__setattr__(self, "embedding", emb)

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def increment_std(self, dt: float) -> np.ndarray:
        return np.sqrt(self.eigenvalues * dt)


def diagonal_qwiener(eigenvalues, embedding=None) -> QWienerSpec:
    lam = np.asarray(eigenvalues, dtype=float)
    m = len(lam)
    if embedding is None:
        embedding = np.eye(m)
    return QWienerSpec(eigenvalues=lam, eigenvectors=np.eye(m), embedding=np.asarray(embedding, dtype=float))


@dataclass(frozen=True, eq=False)
class JumpSpec:
    """Finite-activity marked jumps: total rate, mark law and the jump map.

    ``gamma(X, marks)`` is vectorized over rows. ``compensator_mean`` returns
    ``integral gamma(x, nu) mu(d nu)`` rowwise; when omitted it is evaluated
    with the mark law's quadrature, which is exact for atomic marks.
    """

    total_rate: float
    marks: MarkSampler
    gamma: "callable"
    compensator_mean: "callable | None" = None
    state_independent: bool = False

    def __post_init__(self):
        if self.total_rate < 0:
            raise ContractViolation("jump rate must be nonnegative")

    def compensator_rows(self, X: np.ndarray) -> np.ndarray:
        if self.compensator_mean is not None:
            return self.compensator_mean(X)
        w, nodes = self.marks.quadrature()
        acc = None
        for wq, nq in zip(w, nodes):
            g = self.gamma(X, np.tile(nq, (X.shape[0], 1)))
            acc = wq * g if acc is None else acc + wq * g
        return self.total_rate * acc

    def _moment(self, space, x, power: int) -> float:
        w, nodes = self.marks.quadrature()
        X = np.tile(np.asarray(x, dtype=float), (len(nodes), 1))
        g = self.gamma(X, nodes)
        n2 = space.norm2_rows(g)
        return float(self.total_rate * (w @ n2 ** (power // 2)))

    def second_moment(self, space, x) -> float:
        """integral ||gamma(x, nu)||^2 mu(d nu) by the mark quadrature."""
        return self._moment(space, x, 2)

    def fourth_moment(self, space, x) -> float:
        return self._moment(space, x, 4)

    def second_moment_diff(self, space, x, y) -> float:
        w, nodes = self.marks.quadrature()
        Xr = np.tile(np.asarray(x, dtype=float), (len(nodes), 1))
        Yr = np.tile(np.asarray(y, dtype=float), (len(nodes), 1))
        diff = self.gamma(Xr, nodes) - self.gamma(Yr, nodes)
        return float(self.total_rate * (w @ space.norm2_rows(diff)))


def additive_jumps(total_rate: float, marks: MarkSampler) -> JumpSpec:
    """Jumps ``gamma(x, nu) = nu`` with the closed-form compensator."""
    mean = marks.mark_mean()

    def gamma(X, M):
        return M

    def compensator(X):
        return np.broadcast_to(total_rate * mean, X.shape)

    return JumpSpec(total_rate=total_rate, marks=marks, gamma=gamma,
                    compensator_mean=compensator, state_independent=True)


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Materialized noise on a step grid; slices of it act as shifted views."""

    dt: float
    n_steps: int
    gaussian: np.ndarray       # (n_steps, n_modes), variance dt*lambda_j
    jump_steps: np.ndarray     # (K,) sorted step indices
    jump_marks: np.ndarray     # (K, mark_dim)
    master_seed: int
    traj_index: int = 0
    tau_offset: int = 0        # shift applied relative to the generated record

    def __post_init__(self):
        if self.dt <= 0:
            raise ContractViolation("dt must be positive")


def jump_draw(js: JumpSpec, dt: float, n_steps: int, seed: int, traj_index: int):
    """One trajectory's jump events over ``n_steps`` steps, in draw order:
    the step of each event and its mark, from the trajectory's jump stream."""
    gen = substream(seed, traj_index, STREAM_JUMP)
    k = int(gen.poisson(js.total_rate * dt * n_steps))
    return np.floor(gen.random(k) * n_steps).astype(np.int64), js.marks.sample(gen, k)


def sample_path(qw: QWienerSpec | None, js: JumpSpec | None, dt: float,
                n_steps: int, seed: int, traj_index: int = 0) -> NoisePath:
    """Draw one trajectory's noise record from its derived substreams."""
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    n_steps = int(n_steps)
    if qw is not None and qw.n_modes > 0:
        gen = substream(seed, traj_index, STREAM_GAUSS)
        gauss = gen.standard_normal((n_steps, qw.n_modes))
        gauss *= qw.increment_std(dt)
    else:
        gauss = np.zeros((n_steps, 0))
    if js is not None and js.total_rate > 0:
        pos, marks = jump_draw(js, dt, n_steps, seed, traj_index)
        order = np.argsort(pos, kind="stable")
        steps, marks = pos[order], marks[order]
    else:
        steps = np.zeros(0, dtype=np.int64)
        marks = np.zeros((0, js.marks.dim if js is not None else 0))
    return NoisePath(dt=dt, n_steps=n_steps, gaussian=gauss, jump_steps=steps,
                     jump_marks=marks, master_seed=int(seed), traj_index=int(traj_index))


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
                   jump_marks=path.jump_marks[i0:],
                   tau_offset=path.tau_offset + tau_steps)
