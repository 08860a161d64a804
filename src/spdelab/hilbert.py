"""Finite-dimensional Hilbert-space numerics shared by every other module.

Three geometries are supported:

* plain Euclidean coordinates,
* Euclidean coordinates with a diagonal weight vector (discrete ``L^2(eta)``),
* a uniform grid on ``[0, x_max]`` carrying the forward-curve norm
  ``|h(x_max)|^2 + integral (h')^2 e^{beta x} dx``, with the derivative taken
  by forward differences and the integral by the trapezoid rule on each cell.

Operators come in two flavours: a dense generator matrix whose semigroup is
evaluated with a scaling-and-squaring matrix exponential, and the grid shift
``(S(t)h)(x) = h(x + t)`` evaluated by linear interpolation with constant
extrapolation at the far end of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .errors import ContractViolation

EUCLIDEAN = "euclidean"
HBETA_GRID = "hbeta-grid"

MATRIX_EXP = "matrix-exponential"
GRID_SHIFT = "grid-shift"


@dataclass(frozen=True, eq=False)
class HilbertSpace:
    """An inner-product space on ``R^dim``; immutable and shareable."""

    dim: int
    kind: str = EUCLIDEAN
    weight: np.ndarray | None = None      # diagonal weights, euclidean kind only
    grid: np.ndarray | None = None        # hbeta-grid kind only
    beta: float | None = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ContractViolation("space dimension must be positive")
        if self.kind not in (EUCLIDEAN, HBETA_GRID):
            raise ContractViolation(f"unknown space kind {self.kind!r}")
        if self.kind == HBETA_GRID:
            if self.grid is None or self.beta is None or self.beta <= 0:
                raise ContractViolation("hbeta-grid space needs a grid and beta > 0")
            if self.dim < 2 or len(self.grid) != self.dim or np.any(np.diff(self.grid) <= 0):
                raise ContractViolation("an hbeta grid needs n >= 2 increasing points")
        if self.weight is not None:
            if self.kind != EUCLIDEAN:
                raise ContractViolation("weights only apply to the euclidean kind")
            if len(self.weight) != self.dim or np.any(np.asarray(self.weight) <= 0):
                raise ContractViolation("weights must be positive with length dim")

    # -- geometry helpers ---------------------------------------------------

    @cached_property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @cached_property
    def cell_weights(self) -> np.ndarray:
        """Trapezoid weights of ``e^{beta x}`` on each grid cell."""
        g = self.grid
        w = np.exp(self.beta * g)
        return np.diff(g) * 0.5 * (w[:-1] + w[1:])

    def inner(self, x, y) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ContractViolation(
                f"inner product needs two vectors of length {self.dim}, "
                f"got {x.shape} and {y.shape}")
        if self.kind == EUCLIDEAN:
            if self.weight is None:
                return float(x @ y)
            return float((x * self.weight) @ y)
        dx = np.diff(x) / self.dx
        dy = np.diff(y) / self.dx
        return float(x[-1] * y[-1] + (dx * dy) @ self.cell_weights)

    def norm2(self, x) -> float:
        return self.inner(x, x)

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.norm2(x), 0.0)))

    def norm2_rows(self, X: np.ndarray) -> np.ndarray:
        """Squared norms of a batch of vectors, one per row."""
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.dim:
            raise ContractViolation("row length does not match space dimension")
        if self.kind == EUCLIDEAN:
            if self.weight is None:
                return np.einsum("ij,ij->i", X, X)
            return np.einsum("ij,j,ij->i", X, self.weight, X)
        D = np.diff(X, axis=1) / self.dx
        return X[:, -1] ** 2 + (D * D) @ self.cell_weights

    def inner_rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if self.kind == EUCLIDEAN:
            if self.weight is None:
                return np.einsum("ij,ij->i", X, Y)
            return np.einsum("ij,j,ij->i", X, self.weight, Y)
        DX = np.diff(X, axis=1) / self.dx
        DY = np.diff(Y, axis=1) / self.dx
        return X[:, -1] * Y[:, -1] + (DX * DY) @ self.cell_weights

    def adjoint(self, M: np.ndarray) -> np.ndarray:
        """Matrix adjoint with respect to this inner product."""
        M = np.asarray(M, dtype=float)
        if self.kind != EUCLIDEAN:
            raise ContractViolation("matrix adjoints are only defined for euclidean kinds")
        if self.weight is None:
            return M.T.copy()
        return (M.T * self.weight) / self.weight[:, None]


def euclidean_space(dim: int) -> HilbertSpace:
    return HilbertSpace(dim=dim)

def weighted_space(weights) -> HilbertSpace:
    w = np.asarray(weights, dtype=float)
    return HilbertSpace(dim=len(w), weight=w)

def hbeta_grid_space(beta: float, x_max: float, n: int) -> HilbertSpace:
    grid = np.linspace(0.0, float(x_max), int(n))
    return HilbertSpace(dim=int(n), kind=HBETA_GRID, grid=grid, beta=float(beta))


@dataclass(frozen=True, eq=False)
class Projection:
    """A projection stored as an explicit matrix, valid in a given geometry."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ContractViolation("projection matrix must be square")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ContractViolation("projection dimension mismatch")
        return x @ self.matrix.T

    def complement(self) -> "Projection":
        return Projection(np.eye(self.dim) - self.matrix)

    def validate(self, space: HilbertSpace | None = None, tol: float = 1e-10,
                 n_probes: int = 100, seed: int = 7_101) -> None:
        """Check idempotency and self-adjointness on random probes."""
        gen = np.random.Generator(np.random.Philox(seed))
        X = gen.standard_normal((n_probes, self.dim))
        PX = self.apply(X)
        defect = np.abs(self.apply(PX) - PX).max(axis=1)
        scale = np.abs(X).max(axis=1) + 1.0
        if np.any(defect > tol * scale):
            raise ContractViolation("projection is not idempotent within tolerance")
        if space is not None:
            Y = gen.standard_normal((n_probes, self.dim))
            lhs = space.inner_rows(PX, Y)
            rhs = space.inner_rows(X, self.apply(Y))
            norm = np.sqrt(space.norm2_rows(X) * space.norm2_rows(Y)) + 1.0
            if np.any(np.abs(lhs - rhs) > 1e-8 * norm):
                raise ContractViolation("projection is not self-adjoint in this geometry")


def identity_projection(dim: int) -> Projection:
    return Projection(np.eye(dim))

def coordinate_projection(dim: int, coords) -> Projection:
    m = np.zeros((dim, dim))
    for c in coords:
        m[c, c] = 1.0
    return Projection(m)

def long_rate_projection(space: HilbertSpace) -> Projection:
    """Project a grid curve onto the constant curve at its terminal value."""
    if space.kind != HBETA_GRID:
        raise ContractViolation("long-rate projection needs an hbeta-grid space")
    m = np.zeros((space.dim, space.dim))
    m[:, -1] = 1.0
    return Projection(m)

def averaging_projection(weights) -> Projection:
    """Rank-one projection ``v -> (sum_i w_i v_i) * ones`` for probability weights."""
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0):
        raise ContractViolation("averaging weights must be a probability vector")
    return Projection(np.tile(w, (len(w), 1)))


@dataclass(frozen=True, eq=False)
class OperatorModel:
    """Generator plus a way to evaluate its semigroup."""

    space: HilbertSpace
    semigroup_mode: str
    generator: np.ndarray | None = None
    _expm_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.semigroup_mode not in (MATRIX_EXP, GRID_SHIFT):
            raise ContractViolation(f"unknown semigroup mode {self.semigroup_mode!r}")
        if self.semigroup_mode == MATRIX_EXP:
            a = np.asarray(self.generator, dtype=float)
            if a.shape != (self.space.dim, self.space.dim):
                raise ContractViolation("generator must be a square matrix matching the space")
            object.__setattr__(self, "generator", a)
        elif self.space.kind != HBETA_GRID:
            raise ContractViolation("grid-shift semigroups need an hbeta-grid space")

    def generator_matrix(self) -> np.ndarray:
        """The generator as a matrix; forward differences for the grid shift."""
        if self.generator is not None:
            return self.generator
        n, dx = self.space.dim, self.space.dx
        a = np.zeros((n, n))
        idx = np.arange(n - 1)
        a[idx, idx] = -1.0 / dx
        a[idx, idx + 1] = 1.0 / dx
        return a

    def semigroup_matrix(self, t: float) -> np.ndarray:
        if self.semigroup_mode != MATRIX_EXP:
            raise ContractViolation("semigroup matrix only exists in matrix-exponential mode")
        key = float(t)
        hit = self._expm_cache.get(key)
        if hit is None:
            hit = expm(key * self.generator)
            self._expm_cache[key] = hit
        return hit

    def shift_plan(self, t: float) -> tuple[int, float]:
        """Decompose a shift by ``t`` into whole cells plus a fractional weight."""
        shift = float(t) / self.space.dx
        k = int(np.floor(shift + 1e-12))
        w = shift - k
        if w < 1e-12:
            w = 0.0
        k = min(k, self.space.dim)
        return k, w

    def apply_semigroup_rows(self, t: float, X: np.ndarray,
                             out: np.ndarray | None = None) -> np.ndarray:
        """Evaluate ``S(t)`` on a batch of vectors (one per row), into ``out``
        when given; ``out`` may be ``X`` itself."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if t < 0:
            raise ContractViolation("semigroup time must be nonnegative")
        if X.shape[1] != self.space.dim:
            raise ContractViolation("vector length does not match the operator's space")
        if out is not None and out.shape != X.shape:
            raise ContractViolation("output rows do not match the input rows")
        if t == 0.0:
            if out is None:
                return X.copy()
            out[...] = X
            return out
        if self.semigroup_mode == MATRIX_EXP:
            return np.matmul(X, self.semigroup_matrix(t).T, out=out)
        k, w = self.shift_plan(t)
        n = self.space.dim
        if out is None:
            out = np.empty_like(X)
        # each branch reads the terminal column only after writing the columns
        # before it, so out may be X
        if w == 0.0:
            if k < n:
                out[:, :n - k] = X[:, k:]
            out[:, max(n - k, 0):] = X[:, -1:]
        else:
            c = n - 1 - k   # cells where both interpolation nodes exist
            if c > 0:
                out[:, :c] = (1.0 - w) * X[:, k:k + c] + w * X[:, k + 1:k + c + 1]
            out[:, max(c, 0):] = X[:, -1:]
        return out

    def apply_semigroup(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.apply_semigroup_rows(t, np.asarray(x, dtype=float)[None, :])[0]


def matrix_operator(space: HilbertSpace, generator) -> OperatorModel:
    return OperatorModel(space=space, semigroup_mode=MATRIX_EXP,
                         generator=np.asarray(generator, dtype=float))

def shift_operator(space: HilbertSpace) -> OperatorModel:
    return OperatorModel(space=space, semigroup_mode=GRID_SHIFT)

