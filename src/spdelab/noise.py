"""Driving noise: Q-Wiener increments in a truncated eigenbasis and
finite-activity compensated additive Poisson jumps, drawn per trajectory
from counter-based substreams. Each ingredient is plain data: a QWienerSpec
holds the mode variances, a JumpSpec the jump rate and mark law.

Reproducibility contract: every random stream is a Philox generator keyed by
``(master_seed, trajectory_index, stream_tag)``, so regeneration never
depends on execution order or worker count. The key is bit for bit numpy's
``SeedSequence(master_seed, spawn_key=(trajectory_index, stream_tag))``
state, which a known-answer test pins; ``stream_keys`` computes it for a
whole block in one pass, and ``substream`` builds one trajectory's generator
from it. There are three stream tags:

- STREAM_GAUSS: the per-step standard normals of the Q-Wiener increments;
- STREAM_JUMP: the jump count, times and marks;
- STREAM_SEGMENT: the standard normals from which the engine's
  linear-additive collapse draws each segment's noise; a collapsed run reads
  it instead of STREAM_GAUSS.

The engine draws them block by block, from one generator per block whose
state it sets to each trajectory's key or saved state; ``sample_path`` draws
one trajectory's increments and jump events at once, as plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolation

STREAM_GAUSS = 0
STREAM_JUMP = 1
STREAM_SEGMENT = 2

POINT_MASS = "point-mass"
GAUSSIAN_MARK = "gaussian-mark"
UNIFORM_MARK = "uniform-mark"


_M32 = 0xFFFFFFFF
# generate_state's hash constants, 0x8B51F9DD times 0x58F38DED^i
_STATE_CONSTANTS = (0x8B51F9DD, 0x464A0A99, 0x819D14A5, 0xD369FDC1, 0x501638AD)


def _hashmix(v, a, b):
    """SeedSequence's hashmix of ``v`` under the hash constant ``a``, which
    then steps to ``b``; ``v`` is a Python int or a uint64 array of words."""
    v = (v ^ a) * b & _M32
    return v ^ v >> 16


def _mix(x, y):
    r = (x * 0xCA01F9DD - y * 0x4973F715) & _M32
    return r ^ r >> 16


@lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple:
    """SeedSequence's four pool words once a spawned sequence has taken the
    seed's words (zero-padded to the pool size), and the 9 hashmix constants
    that the spawn key's two words use next."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    a = [0x43B0D7E5]                        # hashmix constants, one step per call
    while len(a) < 4 * len(words) + 9:
        a.append(a[-1] * 0x931E8875 & _M32)
    pool = [_hashmix(w, a[i], a[i + 1]) for i, w in enumerate(words[:4])]
    k = 4
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = _mix(pool[d], _hashmix(pool[s], a[k], a[k + 1]))
                k += 1
    for w in words[4:]:
        for d in range(4):
            pool[d] = _mix(pool[d], _hashmix(w, a[k], a[k + 1]))
            k += 1
    return tuple(pool), tuple(a[k:])


def stream_keys(master_seed: int, traj_ids, tag: int) -> np.ndarray:
    """Philox keys ``(B, 2)`` of the ``tag`` streams of trajectories ``traj_ids``.

    Row ``j`` is bit for bit ``SeedSequence(master_seed, spawn_key=(traj_ids[j],
    tag)).generate_state(2, np.uint64)``. numpy's hash fills its pool of four
    words from the seed alone and then mixes in the spawn key, so the seed's
    part is hashed once per seed and the trajectory words as one array pass."""
    seed, tag = int(master_seed), int(tag)
    ids = np.asarray(traj_ids, dtype=np.int64).reshape(-1)
    if seed < 0 or not 0 <= tag <= _M32 or (ids.size and not 0 <= ids.min() <= ids.max() <= _M32):
        raise ValueError("expected a non-negative seed, and trajectory ids and a tag below 2**32")
    pool, a = _seed_pool(seed)

    def col(v):                             # over the four pool words
        return np.array(v, dtype=np.uint64)[:, None]

    pool = _mix(col(pool), _hashmix(ids.astype(np.uint64), col(a[:4]), col(a[1:5])))
    pool = _mix(pool, col([_hashmix(tag, a[4 + d], a[5 + d]) for d in range(4)]))
    out = _hashmix(pool, col(_STATE_CONSTANTS[:4]), col(_STATE_CONSTANTS[1:]))
    return np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)


def substream(master_seed: int, traj_index: int, tag: int) -> np.random.Generator:
    """Counter-based generator for one (trajectory, stream) pair."""
    key = stream_keys(master_seed, [traj_index], tag)[0]
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class MarkSampler:
    """Distribution of jump marks; tagged so scenario files can declare it."""

    kind: str
    point: np.ndarray | None = None        # point-mass atom
    mean: np.ndarray | None = None         # gaussian-mark
    cov_diag: np.ndarray | None = None     # gaussian-mark variances
    lo: np.ndarray | None = None           # uniform-mark bounds
    hi: np.ndarray | None = None

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

    def spread(self) -> np.ndarray:
        """Rows ``std_k e_k``, one per coordinate of positive variance. Each
        kind's coordinates are uncorrelated, so in any geometry
        ``E ||z - E z||^2`` is the sum of their squared norms."""
        if self.kind == POINT_MASS:
            std = np.zeros(self.dim)
        elif self.kind == GAUSSIAN_MARK:
            std = np.sqrt(self.cov_diag)
        else:
            std = (self.hi - self.lo) / np.sqrt(12.0)
        return np.diag(std)[std > 0]

    def cf(self, V: np.ndarray) -> np.ndarray:
        """The characteristic function ``E exp(i <v, z>)`` at each row ``v`` of
        ``V``, in closed form; a uniform box's ``sinc`` is exactly 1 at a zero
        width or a zero frequency."""
        if self.kind == POINT_MASS:
            return np.exp(1j * (V @ self.point))
        if self.kind == GAUSSIAN_MARK:
            return np.exp(1j * (V @ self.mean) - 0.5 * ((V * V) @ self.cov_diag))
        half = 0.5 * (self.hi - self.lo)
        return np.exp(1j * (V @ self.mark_mean())) * np.prod(np.sinc(V * (half / np.pi)), axis=1)


@dataclass(frozen=True, eq=False)
class QWienerSpec:
    """Trace-class covariance, diagonal in its modes: stored increments carry
    variance ``dt * eigenvalue`` per mode; the diffusion's columns place them."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if np.any(lam < 0):
            raise ContractViolation("Q eigenvalues must be nonnegative")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def increment_std(self, dt: float) -> np.ndarray:
        return np.sqrt(self.eigenvalues * dt)


diagonal_qwiener = QWienerSpec      # every Q here is diagonal in its modes


@dataclass(frozen=True, eq=False)
class JumpSpec:
    """Finite-activity additive jumps ``gamma(x, nu) = nu``: a positive total
    rate and the mark law. A scenario without jumps has no JumpSpec."""

    total_rate: float
    marks: MarkSampler

    def __post_init__(self):
        if not 0 < self.total_rate:
            raise ContractViolation("jump rate must be positive (no jumps is None, not a JumpSpec)")

    def compensator_rows(self, X: np.ndarray) -> np.ndarray:
        """``integral nu mu(d nu)``, the rate times the mark mean, on every row."""
        return np.broadcast_to(self.total_rate * self.marks.mark_mean(), X.shape)

    def second_moment(self, space) -> float:
        """integral ||nu||^2 mu(d nu) = rate (||E nu||^2 + E ||nu - E nu||^2)."""
        m = self.marks
        return float(self.total_rate * (space.norm2(m.mark_mean())
                                        + space.norm2_rows(m.spread()).sum()))


def jump_draw(js: JumpSpec, dt: float, n_steps: int, gen: np.random.Generator):
    """One trajectory's jump events over ``n_steps`` steps, in draw order:
    the step of each event and its mark, from ``gen`` at the start of the
    trajectory's STREAM_JUMP stream."""
    k = int(gen.poisson(js.total_rate * dt * n_steps))
    return np.floor(gen.random(k) * n_steps).astype(np.int64), js.marks.sample(gen, k)


def sample_path(qw: QWienerSpec | None, js: JumpSpec | None, dt: float,
                n_steps: int, seed: int, traj_index: int = 0):
    """One trajectory's noise over ``n_steps`` steps as plain arrays
    ``(gaussian, jump_steps, jump_marks)``: the increments ``(n_steps,
    n_modes)`` with variance ``dt * lambda_j``, the sorted step of each jump
    and its mark. The increments are the STREAM_GAUSS numbers that stepping
    draws in chunks."""
    if dt <= 0:
        raise ContractViolation("dt must be positive")
    n_steps = int(n_steps)
    if qw is not None and qw.n_modes > 0:
        gauss = substream(seed, traj_index, STREAM_GAUSS).standard_normal((n_steps, qw.n_modes))
        gauss *= qw.increment_std(dt)
    else:
        gauss = np.zeros((n_steps, 0))
    if js is not None:
        pos, marks = jump_draw(js, dt, n_steps, substream(seed, traj_index, STREAM_JUMP))
        order = np.argsort(pos, kind="stable")
        return gauss, pos[order], marks[order]
    return gauss, np.zeros(0, dtype=np.int64), np.zeros((0, 0))
