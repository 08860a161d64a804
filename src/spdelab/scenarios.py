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
from .errors import SchemaError
from .gdc import make_certificate
from .hilbert import (HilbertSpace, Projection, averaging_projection,
                      coordinate_projection, euclidean_space, hbeta_grid_space,
                      identity_projection, long_rate_projection, matrix_operator,
                      shift_operator, weighted_space)
from .noise import (GAUSSIAN_MARK, MarkSampler, POINT_MASS, UNIFORM_MARK,
                    additive_jumps, diagonal_qwiener)
from .oulevy import LevyTriplet, OuScenario, make_ou_scenario


def _require(cond, path, msg):
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _check_keys(doc, path, required, optional=()):
    _require(isinstance(doc, dict), path, "expected an object")
    for k in doc:
        _require(k in required or k in optional, f"{path}.{k}", "unknown key")
    for k in required:
        _require(k in doc, path, f"missing required key {k!r}")


def _number(doc, path, minimum=None):
    _require(isinstance(doc, (int, float)) and not isinstance(doc, bool), path,
             "expected a number")
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


def _vector(doc, path, length=None):
    _require(isinstance(doc, list) and all(isinstance(v, (int, float)) for v in doc),
             path, "expected an array of numbers")
    v = np.asarray(doc, dtype=float)
    _require(np.all(np.isfinite(v)), path, "must be finite")
    if length is not None:
        _require(len(v) == length, path, f"expected length {length}")
    return v


def _matrix(doc, path, rows=None, cols=None):
    _require(isinstance(doc, list) and doc and all(isinstance(r, list) for r in doc),
             path, "expected a row-major array of arrays")
    m = np.asarray(doc, dtype=float)
    _require(m.ndim == 2, path, "expected a two-dimensional array")
    if rows is not None:
        _require(m.shape[0] == rows, path, f"expected {rows} rows")
    if cols is not None:
        _require(m.shape[1] == cols, path, f"expected {cols} columns")
    return m


# ---------------------------------------------------------------------------
# section builders


def build_space(doc, path="space") -> HilbertSpace:
    _check_keys(doc, path, ["kind"], ["dim", "weights", "beta", "x_max", "n"])
    kind = doc["kind"]
    if kind == "euclidean":
        if "weights" in doc:
            w = _vector(doc["weights"], f"{path}.weights")
            return weighted_space(w)
        dim = _integer(doc.get("dim"), f"{path}.dim", 1)
        return euclidean_space(dim)
    if kind == "hbeta-grid":
        beta = _number(doc.get("beta"), f"{path}.beta", 1e-12)
        n = _integer(doc.get("n", hjmm.GRID_POINTS), f"{path}.n", 2)
        x_max = _number(doc["x_max"], f"{path}.x_max", 1e-12) if "x_max" in doc else \
            20.0 / beta * max(1.0, beta)
        return hbeta_grid_space(beta, x_max, n)
    raise SchemaError(f"{path}.kind: unknown space kind {kind!r}")


def build_operator(doc, space, path="operator"):
    _check_keys(doc, path, ["mode"], ["generator"])
    if doc["mode"] == "matrix-exponential":
        gen = _matrix(doc.get("generator"), f"{path}.generator", space.dim, space.dim)
        return matrix_operator(space, gen)
    if doc["mode"] == "grid-shift":
        _require("generator" not in doc, f"{path}.generator",
                 "grid-shift mode derives its generator")
        return shift_operator(space)
    raise SchemaError(f"{path}.mode: unknown semigroup mode {doc['mode']!r}")


def build_projection(doc, space, path="projection") -> Projection:
    _check_keys(doc, path, [], ["matrix", "builder", "coords", "weights"])
    if "matrix" in doc:
        p = Projection(_matrix(doc["matrix"], f"{path}.matrix", space.dim, space.dim))
    else:
        builder = doc.get("builder")
        if builder == "coordinates":
            coords = doc.get("coords")
            _require(isinstance(coords, list) and all(isinstance(c, int) for c in coords),
                     f"{path}.coords", "expected an array of coordinate indices")
            p = coordinate_projection(space.dim, coords)
        elif builder == "long-rate":
            p = long_rate_projection(space)
        elif builder == "zero":
            p = Projection(np.zeros((space.dim, space.dim)))
        elif builder == "identity":
            p = identity_projection(space.dim)
        elif builder == "averaging":
            p = averaging_projection(_vector(doc.get("weights"), f"{path}.weights", space.dim))
        else:
            raise SchemaError(f"{path}.builder: unknown projection builder {builder!r}")
    p.validate(space)
    return p


def build_marks(doc, path) -> MarkSampler:
    _check_keys(doc, path, ["kind"], ["point", "mean", "cov_diag", "lo", "hi"])
    kind = doc["kind"]
    if kind == POINT_MASS:
        return MarkSampler(POINT_MASS, point=_vector(doc.get("point"), f"{path}.point"))
    if kind == GAUSSIAN_MARK:
        return MarkSampler(GAUSSIAN_MARK, mean=_vector(doc.get("mean"), f"{path}.mean"),
                           cov_diag=_vector(doc.get("cov_diag"), f"{path}.cov_diag"))
    if kind == UNIFORM_MARK:
        return MarkSampler(UNIFORM_MARK, lo=_vector(doc.get("lo"), f"{path}.lo"),
                           hi=_vector(doc.get("hi"), f"{path}.hi"))
    raise SchemaError(f"{path}.kind: unknown mark distribution {kind!r}")


def build_drift(doc, space, path="coefficients.F"):
    _check_keys(doc, path, ["builder"], ["value", "matrix", "offset", "amplitude"])
    b = doc["builder"]
    if b == "zero":
        return None
    if b == "constant":
        return engine.ConstantDrift(_vector(doc.get("value"), f"{path}.value", space.dim))
    if b == "linear":
        m = _matrix(doc.get("matrix"), f"{path}.matrix", space.dim, space.dim)
        off = _vector(doc["offset"], f"{path}.offset", space.dim) if "offset" in doc \
            else np.zeros(space.dim)
        mt = m.T.copy()

        def drift(X, _mt=mt, _off=off):
            return X @ _mt + _off

        return drift
    if b == "sine":
        amp = _number(doc.get("amplitude"), f"{path}.amplitude")

        def drift(X, _a=amp):
            return _a * np.sin(X)

        return drift
    raise SchemaError(f"{path}.builder: unknown drift builder {b!r}")


class TabulatedSigma:
    """User-tabulated constant columns, optionally damped by the distance to
    the constant curves so the diffusion vanishes on the projection range."""

    def __init__(self, space: HilbertSpace, columns: np.ndarray,
                 vanishing_wrapper: bool = False, p1: Projection | None = None):
        self.space = space
        self.columns_matrix = np.atleast_2d(np.asarray(columns, dtype=float))
        self.vanishing = vanishing_wrapper
        self._p0 = p1.complement().matrix.T.copy() if p1 is not None else None

    def _gain(self, X):
        if not self.vanishing:
            return None
        detr = X @ self._p0 if self._p0 is not None else X
        return np.minimum(1.0, np.sqrt(self.space.norm2_rows(detr)))[:, None]

    def apply(self, X, xi):
        out = xi @ self.columns_matrix.T
        g = self._gain(X)
        return out if g is None else out * g

    def columns(self, x):
        g = self._gain(np.asarray(x, dtype=float)[None, :])
        return self.columns_matrix if g is None else self.columns_matrix * g[0]


def build_sigma(doc, space, path="coefficients.sigma", p1: Projection | None = None):
    """Returns (sigma_model, qwiener) or (None, None)."""
    _check_keys(doc, path, ["builder"], ["columns", "eigenvalues", "tensors", "offsets",
                                         "vanishing_wrapper"])
    b = doc["builder"]
    if b == "zero":
        return None, None
    if b in ("constant", "tabulated"):
        cols = _matrix(doc.get("columns"), f"{path}.columns", space.dim)
        m = cols.shape[1]
        lam = _vector(doc["eigenvalues"], f"{path}.eigenvalues", m) if "eigenvalues" in doc \
            else np.ones(m)
        wrap = bool(doc.get("vanishing_wrapper", False))
        if b == "constant" and not wrap:
            return engine.ConstantSigma(cols), diagonal_qwiener(lam, embedding=cols)
        model = TabulatedSigma(space, cols, vanishing_wrapper=wrap, p1=p1)
        return model, diagonal_qwiener(lam, embedding=cols if not wrap
                                       else np.zeros((space.dim, m)))
    if b == "linear-modes":
        tensors = np.asarray(doc.get("tensors"), dtype=float)
        _require(tensors.ndim == 3 and tensors.shape[1:] == (space.dim, space.dim),
                 f"{path}.tensors", "expected an (m, dim, dim) array")
        m = tensors.shape[0]
        offsets = _matrix(doc["offsets"], f"{path}.offsets", m, space.dim) if "offsets" in doc \
            else np.zeros((m, space.dim))
        lam = _vector(doc["eigenvalues"], f"{path}.eigenvalues", m) if "eigenvalues" in doc \
            else np.ones(m)
        return (engine.LinearSigma(tensors, offsets),
                diagonal_qwiener(lam, embedding=np.zeros((space.dim, m))))
    raise SchemaError(f"{path}.builder: unknown diffusion builder {b!r}")


def build_jumps(doc, space, path="coefficients.gamma"):
    _check_keys(doc, path, ["builder"], ["rate", "marks"])
    b = doc["builder"]
    if b == "none":
        return None
    if b == "additive":
        rate = _number(doc.get("rate"), f"{path}.rate", 0.0)
        marks = build_marks(doc.get("marks"), f"{path}.marks")
        _require(marks.dim == space.dim, f"{path}.marks",
                 "additive marks must match the space dimension")
        return additive_jumps(rate, marks)
    raise SchemaError(f"{path}.builder: unknown jump builder {b!r}")


SCENARIO_KEYS = (["id", "space", "operator", "projection"],
                 ["coefficients", "lipschitz", "gdc", "flags", "ou", "hjmm",
                  "experiment"])


def build_hjmm_volatility(doc, space, path="hjmm"):
    """Volatility declarations for forward-curve scenarios: the worked
    single-factor example, the zero volatility, or user-tabulated factors."""
    _check_keys(doc, path, ["volatility"],
                ["beta_prime", "factors", "M", "L_sigma", "L_gamma",
                 "vanishing_at_constants"])
    kind = doc["volatility"]
    bp = _number(doc.get("beta_prime", 1000.0), f"{path}.beta_prime", 0.0)
    if kind == "example":
        return hjmm.hjmm_example_volatility(space, beta_prime=bp)
    if kind == "zero":
        return hjmm.HjmmVolatility(sigma_factors=(), M=0.0, beta_prime=bp,
                                   vanishing_at_constants=True)
    if kind == "tabulated":
        raw = doc.get("factors")
        _require(isinstance(raw, list) and raw, f"{path}.factors",
                 "expected an array of tabulated factor curves")
        factors = []
        for i, row in enumerate(raw):
            vals = _vector(row, f"{path}.factors[{i}]", space.dim).copy()
            vals[-1] = 0.0      # keep the tabulated range inside the zero-long-rate space

            def factor(X, _v=vals):
                return np.broadcast_to(_v, X.shape)

            factors.append(factor)
        return hjmm.HjmmVolatility(
            sigma_factors=tuple(factors),
            M=_number(doc.get("M", 0.0), f"{path}.M", 0.0),
            L_sigma=_number(doc.get("L_sigma", 0.0), f"{path}.L_sigma", 0.0),
            L_gamma=_number(doc.get("L_gamma", 0.0), f"{path}.L_gamma", 0.0),
            beta_prime=bp,
            vanishing_at_constants=bool(doc.get("vanishing_at_constants", False)))
    raise SchemaError(f"{path}.volatility: unknown volatility {kind!r}")


def _certificate_section(doc, space, op, p1):
    """Certify the operator with the document's ``lipschitz`` and ``gdc``
    sections; a grid-shift operator without ``gdc.lambda0`` gets beta / 2."""
    lip = doc.get("lipschitz", {})
    _check_keys(lip, "lipschitz", [], ["L_F", "L_sigma", "L_gamma"])
    gdc_doc = doc.get("gdc", {})
    _check_keys(gdc_doc, "gdc", [], ["lambda0", "lambda1", "tol"])
    lambda0 = _number(gdc_doc["lambda0"], "gdc.lambda0", 0.0) if "lambda0" in gdc_doc else None
    gen = op.generator if op.semigroup_mode == "matrix-exponential" else None
    if gen is None and lambda0 is None:
        lambda0 = space.beta / 2.0
    return make_certificate(gen, p1, _number(gdc_doc.get("lambda1", 0.0), "gdc.lambda1", 0.0),
                            L_F=_number(lip.get("L_F", 0.0), "lipschitz.L_F", 0.0),
                            L_sigma=_number(lip.get("L_sigma", 0.0), "lipschitz.L_sigma", 0.0),
                            L_gamma=_number(lip.get("L_gamma", 0.0), "lipschitz.L_gamma", 0.0),
                            tol=_number(gdc_doc.get("tol", 1e-9), "gdc.tol", 1e-15),
                            space=space, lambda0=lambda0)


def load_document(path_or_text) -> dict:
    text = path_or_text
    if not str(path_or_text).lstrip().startswith("{"):
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    _check_keys(doc, "$", *SCENARIO_KEYS)
    _require(isinstance(doc["id"], str) and doc["id"], "$.id", "expected a nonempty string")
    return doc


def build_scenario(doc) -> engine.Scenario:
    """Assemble an engine scenario (with its certificate) from a document."""
    space = build_space(doc["space"])
    op = build_operator(doc["operator"], space)
    p1 = build_projection(doc["projection"], space)
    if "hjmm" in doc:
        _require(space.kind == "hbeta-grid", "$.hjmm",
                 "forward-curve coefficients need an hbeta-grid space")
        _require("coefficients" not in doc, "$.coefficients",
                 "the hjmm section supplies all coefficients")
        vol = build_hjmm_volatility(doc["hjmm"], space)
        sc, _ = hjmm.hjmm_scenario(space, vol, scenario_id=doc["id"])
        return sc
    coeff = doc.get("coefficients", {})
    _check_keys(coeff, "coefficients", [], ["F", "sigma", "gamma"])
    drift = build_drift(coeff["F"], space) if "F" in coeff else None
    sigma, qw = build_sigma(coeff["sigma"], space, p1=p1) if "sigma" in coeff else (None, None)
    jumps = build_jumps(coeff["gamma"], space) if "gamma" in coeff else None
    flags_doc = doc.get("flags", {})
    _check_keys(flags_doc, "flags", [], ["vanishing_on_H1", "deterministic_P1"])
    flags = engine.ScenarioFlags(
        vanishing_on_H1=bool(flags_doc.get("vanishing_on_H1", False)),
        deterministic_P1=bool(flags_doc.get("deterministic_P1", False)))
    return engine.Scenario(op=op, P1=p1, qwiener=qw, drift=drift, sigma=sigma,
                           jumps=jumps, certificate=_certificate_section(doc, space, op, p1),
                           flags=flags,
                           scenario_id=doc["id"])


def build_ou_scenario(doc) -> OuScenario:
    """OU section: additive Levy triplet on the declared operator."""
    space = build_space(doc["space"])
    op = build_operator(doc["operator"], space)
    p = build_projection(doc["projection"], space)
    ou_doc = doc.get("ou")
    _require(ou_doc is not None, "$.ou", "missing the ou section")
    _check_keys(ou_doc, "ou", [], ["drift", "cov", "jump_rate", "marks", "t_grid"])
    b = _vector(ou_doc["drift"], "ou.drift", space.dim) if "drift" in ou_doc \
        else np.zeros(space.dim)
    cov = _matrix(ou_doc["cov"], "ou.cov", space.dim, space.dim) if "cov" in ou_doc \
        else np.zeros((space.dim, space.dim))
    rate = _number(ou_doc.get("jump_rate", 0.0), "ou.jump_rate", 0.0)
    marks = build_marks(ou_doc["marks"], "ou.marks") if rate > 0 else None
    t_grid = _vector(ou_doc["t_grid"], "ou.t_grid") if "t_grid" in ou_doc else None
    triplet = LevyTriplet(drift=b, cov=cov, jump_rate=rate, jump_marks=marks)
    return make_ou_scenario(op, p, triplet, t_grid=t_grid, scenario_id=doc["id"])


SUBCOMMAND_SECTIONS = ("simulate", "ou-limit", "lab")


def experiment_section(doc, allowed, subcommand: str | None = None,
                       path="experiment") -> dict:
    """The experiment parameters, either flat or namespaced per subcommand so
    one scenario document can drive several of them."""
    exp = doc.get("experiment", {})
    _require(isinstance(exp, dict), path, "expected an object")
    if exp and set(exp).issubset(SUBCOMMAND_SECTIONS):
        exp = exp.get(subcommand, {}) if subcommand else {}
        path = f"{path}.{subcommand}"
    _check_keys(exp, path, [], allowed)
    return exp
