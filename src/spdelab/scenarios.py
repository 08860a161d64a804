"""Scenario documents: a strict JSON format declaring the space, operator,
projection, coefficient builders, noise, Lipschitz constants and experiment
parameters. Unknown keys anywhere are errors; every run echoes the resolved
document into its manifest.

Coefficient functions come from a registry of named builders so the declared
Lipschitz constants stay auditable; there is no embedded expression language.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import engine, hjmm
from .errors import BudgetExceeded, ContractViolation, SchemaError
from .gdc import make_certificate
from .hilbert import (HilbertSpace, Projection, averaging_projection,
                      coordinate_projection, euclidean_space, identity_projection,
                      matrix_operator, weighted_space)
from .noise import GAUSSIAN_MARK, JumpSpec, MarkSampler, POINT_MASS, QWienerSpec, UNIFORM_MARK
from .oulevy import OuScenario, make_ou_scenario


def _require(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _check_keys(doc, path, required, optional=()):
    _require(isinstance(doc, dict), path, "expected an object")
    for k in doc:
        _require(k in required or k in optional, f"{path}.{k}", "unknown key")
    for k in required:
        _require(k in doc, path, f"missing required key {k!r}")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(doc, path, minimum=None):
    _require(_is_number(doc), path, "expected a number")
    v = float(doc)
    _require(math.isfinite(v), path, "must be finite")
    if minimum is not None:
        _require(v >= minimum, path, f"must be >= {minimum}")
    return v


def _integer(doc, path, minimum=None):
    _require(isinstance(doc, int) and not isinstance(doc, bool), path, "expected an integer")
    if minimum is not None:
        _require(doc >= minimum, path, f"must be >= {minimum}")
    return int(doc)


def _boolean(doc, path):
    _require(isinstance(doc, bool), path, "expected true or false")
    return doc


def _vector(doc, path, length=None):
    _require(isinstance(doc, list) and all(_is_number(v) for v in doc), path,
             "expected an array of numbers")
    v = np.asarray(doc, dtype=float)
    _require(np.all(np.isfinite(v)), path, "must be finite")
    if length is not None:
        _require(len(v) == length, path, f"expected length {length}")
    return v


def _matrix(doc, path, rows=None, cols=None):
    _require(isinstance(doc, list) and doc and all(isinstance(r, list) for r in doc),
             path, "expected a row-major array of arrays")
    _require(all(len(r) == len(doc[0]) for r in doc), path, "rows differ in length")
    m = np.array([_vector(r, path) for r in doc])
    if rows is not None:
        _require(m.shape[0] == rows, path, f"expected {rows} rows")
    if cols is not None:
        _require(m.shape[1] == cols, path, f"expected {cols} columns")
    return m


# ---------------------------------------------------------------------------
# section builders


def build_space(doc) -> HilbertSpace:
    _check_keys(doc, "space", ["kind"], ["dim", "weights", "beta", "x_max", "n"])
    kind = doc["kind"]
    if kind == "euclidean":
        if "weights" in doc:
            w = _vector(doc["weights"], "space.weights")
            return weighted_space(w)
        dim = _integer(doc.get("dim"), "space.dim", 1)
        return euclidean_space(dim)
    if kind == "hbeta-grid":
        beta = _number(doc.get("beta"), "space.beta", 1e-12)
        n = _integer(doc["n"], "space.n", 2) if "n" in doc else hjmm.GRID_POINTS
        x_max = _number(doc["x_max"], "space.x_max", 1e-12) if "x_max" in doc else None
        try:
            return hjmm.forward_space(beta, x_max=x_max, n=n)
        except BudgetExceeded as e:
            raise BudgetExceeded(f"space.n: {e}") from None
        except ContractViolation as e:      # the weight e^(beta x_max) overflows
            raise SchemaError(f"space.beta, space.x_max: {e}") from None
    raise SchemaError(f"space.kind: unknown space kind {kind!r}")


def build_operator(doc, space):
    _check_keys(doc, "operator", ["mode"], ["generator"])
    if doc["mode"] == "matrix-exponential":
        gen = _matrix(doc.get("generator"), "operator.generator", space.dim, space.dim)
        return matrix_operator(space, gen)
    raise SchemaError(f"operator.mode: unknown semigroup mode {doc['mode']!r}")


def build_projection(doc, space) -> Projection:
    _check_keys(doc, "projection", [], ["matrix", "builder", "coords", "weights"])
    if "matrix" in doc:
        p = Projection(_matrix(doc["matrix"], "projection.matrix", space.dim, space.dim))
    else:
        builder = doc.get("builder")
        if builder == "coordinates":
            coords = doc.get("coords")
            _require(isinstance(coords, list)
                     and all(isinstance(c, int) and not isinstance(c, bool)
                             and 0 <= c < space.dim for c in coords),
                     "projection.coords", f"expected an array of indices in [0, {space.dim})")
            p = coordinate_projection(space.dim, coords)
        elif builder == "zero":
            p = Projection(np.zeros((space.dim, space.dim)))
        elif builder == "identity":
            p = identity_projection(space.dim)
        elif builder == "averaging":
            p = averaging_projection(_vector(doc.get("weights"), "projection.weights", space.dim))
        else:
            raise SchemaError(f"projection.builder: unknown projection builder {builder!r}")
    p.validate(space)
    return p


_MARK_FIELDS = {POINT_MASS: ("point",), GAUSSIAN_MARK: ("mean", "cov_diag"),
                UNIFORM_MARK: ("lo", "hi")}


def build_marks(doc, path, dim) -> MarkSampler:
    _check_keys(doc, path, ["kind"], ["point", "mean", "cov_diag", "lo", "hi"])
    kind = doc["kind"]
    _require(isinstance(kind, str) and kind in _MARK_FIELDS, f"{path}.kind",
             f"unknown mark distribution {kind!r}")
    fields = {k: _vector(doc.get(k), f"{path}.{k}", dim) for k in _MARK_FIELDS[kind]}
    try:
        return MarkSampler(kind, **fields)
    except ContractViolation as e:      # negative variances, hi below lo
        raise SchemaError(f"{path}: {e}") from None


def build_drift(doc, space):
    _check_keys(doc, "coefficients.F", ["builder"], ["value", "matrix", "offset", "amplitude"])
    b = doc["builder"]
    if b == "zero":
        return None
    if b == "constant":
        return engine.ConstantDrift(_vector(doc.get("value"), "coefficients.F.value", space.dim))
    if b == "linear":
        m = _matrix(doc.get("matrix"), "coefficients.F.matrix", space.dim, space.dim)
        off = _vector(doc["offset"], "coefficients.F.offset", space.dim) if "offset" in doc \
            else np.zeros(space.dim)
        mt = m.T.copy()

        def drift(X, _mt=mt, _off=off):
            return X @ _mt + _off

        return drift
    if b == "sine":
        amp = _number(doc.get("amplitude"), "coefficients.F.amplitude")

        def drift(X, _a=amp):
            return _a * np.sin(X)

        return drift
    raise SchemaError(f"coefficients.F.builder: unknown drift builder {b!r}")


class TabulatedSigma:
    """Constant columns damped by the distance to the range of ``p1``, so the
    diffusion vanishes there (the ``vanishing_wrapper`` option)."""

    def __init__(self, space: HilbertSpace, columns: np.ndarray, p1: Projection):
        self.space = space
        self.columns_matrix = columns
        self._p0 = p1.complement().matrix.T.copy()

    def _gain(self, X):
        return np.minimum(1.0, np.sqrt(self.space.norm2_rows(X @ self._p0)))[:, None]

    def apply(self, X, xi):
        return (xi @ self.columns_matrix.T) * self._gain(X)

    def columns(self, x):
        return self.columns_matrix * self._gain(np.asarray(x, dtype=float)[None, :])[0]


def build_sigma(doc, space, p1: Projection):
    """Returns (sigma_model, qwiener) or (None, None). Unwrapped ``constant``
    columns are one ``engine.ConstantSigma``, which the collapse takes."""
    _check_keys(doc, "coefficients.sigma", ["builder"],
                ["columns", "eigenvalues", "tensors", "offsets", "vanishing_wrapper"])
    b = doc["builder"]
    if b == "zero":
        return None, None
    if b == "constant":
        cols = _matrix(doc.get("columns"), "coefficients.sigma.columns", space.dim)
        m = cols.shape[1]
        lam = _vector(doc["eigenvalues"], "coefficients.sigma.eigenvalues", m) \
            if "eigenvalues" in doc else np.ones(m)
        if _boolean(doc.get("vanishing_wrapper", False), "coefficients.sigma.vanishing_wrapper"):
            return TabulatedSigma(space, cols, p1), QWienerSpec(lam)
        return engine.ConstantSigma(cols), QWienerSpec(lam)
    if b == "linear-modes":
        raw = doc.get("tensors")
        _require(isinstance(raw, list) and raw, "coefficients.sigma.tensors",
                 "expected an (m, dim, dim) array")
        tensors = np.array([_matrix(t, f"coefficients.sigma.tensors[{i}]", space.dim, space.dim)
                            for i, t in enumerate(raw)])
        m = tensors.shape[0]
        offsets = _matrix(doc["offsets"], "coefficients.sigma.offsets", m, space.dim) \
            if "offsets" in doc else np.zeros((m, space.dim))
        lam = _vector(doc["eigenvalues"], "coefficients.sigma.eigenvalues", m) \
            if "eigenvalues" in doc else np.ones(m)
        return engine.LinearSigma(tensors, offsets), QWienerSpec(lam)
    raise SchemaError(f"coefficients.sigma.builder: unknown diffusion builder {b!r}")


def build_jumps(doc, space):
    """The document's additive jumps, or None for ``none`` and for rate 0."""
    _check_keys(doc, "coefficients.gamma", ["builder"], ["rate", "marks"])
    b = doc["builder"]
    if b == "none":
        return None
    if b == "additive":
        rate = _number(doc.get("rate"), "coefficients.gamma.rate", 0.0)
        marks = build_marks(doc.get("marks"), "coefficients.gamma.marks", space.dim)
        return JumpSpec(rate, marks) if rate > 0 else None
    raise SchemaError(f"coefficients.gamma.builder: unknown jump builder {b!r}")


SCENARIO_KEYS = (["id", "space", "operator", "projection"],
                 ["coefficients", "lipschitz", "gdc", "hjmm", "experiment"])
_FORWARD_CURVE = "a forward curve needs both an hjmm section and an hbeta-grid space"


def build_hjmm_volatility(doc, space):
    """Volatility declarations for forward-curve scenarios: the worked
    single-factor example, the zero volatility, or user-tabulated factors.
    A tabulated factor is constant: its L_sigma is 0, and M is the sum of the
    factors' squared norms. Every kind needs ``beta_prime > space.beta``."""
    _check_keys(doc, "hjmm", ["volatility"], ["beta_prime", "factors"])
    kind = doc["volatility"]
    _require(kind not in ("example", "zero") or "factors" not in doc, "hjmm.factors",
             f"not allowed for volatility {kind!r}; only a tabulated one takes factors")
    bp = _number(doc.get("beta_prime", 1000.0), "hjmm.beta_prime")
    _require(bp > space.beta, "hjmm.beta_prime", f"must be > space.beta {space.beta!r}, got {bp!r}")
    if kind == "example":
        return hjmm.hjmm_example_volatility(space, beta_prime=bp)
    if kind == "zero":
        return hjmm.HjmmVolatility(sigma_factors=(), beta_prime=bp)
    if kind == "tabulated":
        raw = doc.get("factors")
        _require(isinstance(raw, list) and raw, "hjmm.factors",
                 "expected an array of tabulated factor curves")
        factors, M = [], 0.0
        for i, row in enumerate(raw):
            vals = _vector(row, f"hjmm.factors[{i}]", space.dim).copy()
            vals[-1] = 0.0      # keep the tabulated range inside the zero-long-rate space
            with np.errstate(over="ignore", invalid="ignore"):     # checked below
                M += space.norm2(vals)

            def factor(X, _v=vals):
                return np.broadcast_to(_v, X.shape)

            factors.append(factor)
        _require(math.isfinite(M), "hjmm.factors", "the squared factor norms overflow")
        return hjmm.HjmmVolatility(sigma_factors=tuple(factors), M=M, beta_prime=bp)
    raise SchemaError(f"hjmm.volatility: unknown volatility {kind!r}")


def load_document(path) -> dict:
    """The scenario document in the JSON file ``path``; every error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: not valid JSON: {e}") from None
    _require(isinstance(doc, dict), f"{path}: $", "expected an object")
    _check_keys(doc, "$", *SCENARIO_KEYS)
    _require(isinstance(doc["id"], str) and doc["id"], "$.id", "expected a nonempty string")
    return doc


def build_scenario(doc) -> engine.Scenario:
    """Assemble an engine scenario and its one certificate from a document.

    A forward curve is an ``hjmm`` section on an ``hbeta-grid`` space, run by
    the grid shift and the long-rate projection (``hjmm.hjmm_scenario``), with
    every coefficient and constant from the ``hjmm`` section. Any other
    document takes its constants from the ``lipschitz`` and ``gdc`` sections,
    with ``lambda0`` bisected on the matrix generator."""
    space = build_space(doc["space"])
    _require(("hjmm" in doc) == (space.kind == "hbeta-grid"), "$.hjmm", _FORWARD_CURVE)
    if "hjmm" in doc:
        for key, section in (("operator", {"mode": "grid-shift"}),
                             ("projection", {"builder": "long-rate"})):
            _require(doc[key] == section, f"$.{key}",
                     f"a forward-curve document runs {json.dumps(section)}")
        for key in ("coefficients", "lipschitz", "gdc"):
            _require(key not in doc, f"$.{key}",
                     "the hjmm section supplies all coefficients and constants")
        return hjmm.hjmm_scenario(space, build_hjmm_volatility(doc["hjmm"], space),
                                  scenario_id=doc["id"])
    op = build_operator(doc["operator"], space)
    p1 = build_projection(doc["projection"], space)
    coeff = doc.get("coefficients", {})
    _check_keys(coeff, "coefficients", [], ["F", "sigma", "gamma"])
    drift = build_drift(coeff["F"], space) if "F" in coeff else None
    sigma, qw = build_sigma(coeff["sigma"], space, p1) if "sigma" in coeff else (None, None)
    jumps = build_jumps(coeff["gamma"], space) if "gamma" in coeff else None
    lip = doc.get("lipschitz", {})
    _check_keys(lip, "lipschitz", [], ["L_F", "L_sigma"])
    gdc_doc = doc.get("gdc", {})
    _check_keys(gdc_doc, "gdc", [], ["lambda1", "tol"])
    cert = make_certificate(op.generator, p1,
                            _number(gdc_doc.get("lambda1", 0.0), "gdc.lambda1", 0.0),
                            L_F=_number(lip.get("L_F", 0.0), "lipschitz.L_F", 0.0),
                            L_sigma=_number(lip.get("L_sigma", 0.0), "lipschitz.L_sigma", 0.0),
                            tol=_number(gdc_doc.get("tol", 1e-9), "gdc.tol", 1e-15),
                            space=space)
    return engine.Scenario(op=op, P1=p1, qwiener=qw, drift=drift, sigma=sigma,
                           jumps=jumps, certificate=cert, scenario_id=doc["id"])


def build_ou_scenario(doc) -> OuScenario:
    """The scenario of ``build_scenario`` as a Levy OU: admitted, audited on
    ker P and with its semigroup convergence rate fitted (``make_ou_scenario``)."""
    return make_ou_scenario(build_scenario(doc))


SUBCOMMAND_SECTIONS = ("simulate", "ou-limit", "lab")


def experiment_section(doc, allowed, subcommand: str | None = None) -> dict:
    """The experiment parameters, either flat or namespaced per subcommand so
    one scenario document can drive several of them."""
    exp = doc.get("experiment", {})
    path = "experiment"
    _require(isinstance(exp, dict), path, "expected an object")
    if exp and set(exp).issubset(SUBCOMMAND_SECTIONS):
        exp = exp.get(subcommand, {}) if subcommand else {}
        path = f"experiment.{subcommand}"
    _check_keys(exp, path, [], allowed)
    return exp
