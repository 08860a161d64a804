"""Spans around calls into spdelab's public functions, recorded from outside
the package.

``Tracer.install`` replaces each listed function or method by a wrapper that
records a span ``[name, start, end, parent]`` in memory; ``uninstall`` puts
the original objects back, so untraced rounds run the unmodified program.
A function imported by name into another spdelab module (``from .noise
import substream``) is replaced in every module that binds it.

Self time of a span is its duration minus the time its child spans cover.
Calls run on one thread while traced, so spans nest strictly.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from spdelab import engine, gdc, hilbert, hjmm, lab, noise, oulevy, scenarios, wasserstein

def _ensemble_counts(name):
    """Trajectory steps and Gaussian draws an ensemble simulation performs,
    computed from its arguments."""
    def count(args, kwargs, out, parent):
        a = inspect.signature(getattr(engine, name)).bind(*args, **kwargs).arguments
        n_traj, n_steps, m = int(a["n_traj"]), int(a["n_steps"]), a["sc"].n_modes
        tau = int(a.get("tau_steps", 0))
        if name == "simulate_ensemble":
            steps = n_traj * n_steps
        elif name == "simulate_pair_ensemble":
            steps = 2 * n_traj * n_steps
        else:
            steps = n_traj * (2 * n_steps + tau)
        return {"engine.traj_steps": steps, "engine.grid_steps": n_steps + tau,
                "noise.gauss_draws": n_traj * (n_steps + tau) * m}
    return count


def _jump_events(args, kwargs, out, parent):
    # MarkSampler.sample also draws the fixed quadrature nodes; those are not events
    return {} if parent == "noise.mark_quadrature" else {"noise.jump_events": len(out)}


def _array_bytes(args, kwargs, out):
    total = 0
    for v in (*args, *kwargs.values(), out):
        for a in (v if isinstance(v, (list, tuple)) else (v,)):
            if isinstance(a, np.ndarray):
                total += a.nbytes
    return total


# (span name, owner, attribute, options). Options: "count" adds to named
# counters from (args, kwargs, result, parent span name); "bytes" adds the
# bytes of the array arguments and result to "<name>.bytes"; "calls_only"
# counts calls without a span, for functions too small to time.
TARGETS = [
    ("scenarios.load_document", scenarios, "load_document", {}),
    ("scenarios.build_scenario", scenarios, "build_scenario", {}),
    ("scenarios.build_ou_scenario", scenarios, "build_ou_scenario", {}),
    ("gdc.make_certificate", gdc, "make_certificate", {}),
    ("gdc.certify_lambda0", gdc, "certify_lambda0", {}),
    ("gdc.quadratic_form_audit", gdc, "quadratic_form_audit", {}),
    ("gdc.fit_convergence", gdc, "fit_convergence", {}),
    ("noise.substream", noise, "substream", {}),
    ("noise.mark_sample", noise.MarkSampler, "sample", {"count": _jump_events}),
    ("noise.mark_quadrature", noise.MarkSampler, "quadrature", {}),
    ("engine.simulate_ensemble", engine, "simulate_ensemble",
     {"count": _ensemble_counts("simulate_ensemble")}),
    ("engine.simulate_pair_ensemble", engine, "simulate_pair_ensemble",
     {"count": _ensemble_counts("simulate_pair_ensemble")}),
    ("engine.simulate_coupled_ensemble", engine, "simulate_coupled_ensemble",
     {"count": _ensemble_counts("simulate_coupled_ensemble")}),
    ("engine.stability_check", engine, "stability_check", {}),
    ("engine.lipschitz_audit", engine.Scenario, "lipschitz_audit", {}),
    ("engine.coeff", engine.ConstantSigma, "apply", {}),
    ("engine.coeff", noise.JumpSpec, "compensator_rows", {}),
    ("hilbert.norm2_rows", hilbert.HilbertSpace, "norm2_rows", {}),
    ("hilbert.apply_semigroup_rows", hilbert.OperatorModel, "apply_semigroup_rows",
     {"bytes": True}),
    ("hilbert.semigroup_matrix", hilbert.OperatorModel, "semigroup_matrix", {}),
    ("hilbert.validate_projection", hilbert.Projection, "validate", {}),
    ("hjmm.hjmm_ergodicity_experiment", hjmm, "hjmm_ergodicity_experiment", {}),
    ("hjmm.fused", hjmm.HjmmModel, "fused", {}),
    ("hjmm.example_volatility_rows", hjmm, "example_volatility_rows", {"bytes": True}),
    ("hjmm.cumtrapz_rows", hjmm, "cumtrapz_rows", {"bytes": True}),
    ("hjmm.hjmm_drift_rows", hjmm, "hjmm_drift_rows", {"bytes": True}),
    ("hjmm.audit_volatility", hjmm, "audit_volatility", {}),
    ("wasserstein.w2_assignment", wasserstein, "w2_assignment", {}),
    ("wasserstein.w2_1d", wasserstein, "w2_1d", {}),
    ("wasserstein.w2_1d_to_gaussian", wasserstein, "w2_1d_to_gaussian", {}),
    ("wasserstein.ks_statistic", wasserstein, "ks_statistic", {}),
    ("oulevy.limiting_cf", oulevy, "limiting_cf", {}),
    ("oulevy.levy_exponent", oulevy, "levy_exponent", {"calls_only": True}),
    ("oulevy.make_ou_scenario", oulevy, "make_ou_scenario", {}),
    ("lab.affine_uniqueness_experiment", lab, "affine_uniqueness_experiment", {}),
    ("lab.limit_existence_experiment", lab, "limit_existence_experiment", {}),
    ("lab.audit_deterministic_p1", lab, "audit_deterministic_p1", {}),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, extra_targets=()):
        self.targets = list(TARGETS) + list(extra_targets)
        self.spans = []            # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []         # (owner, attribute, original)

    def _wrap_span(self, name, fn, count=None, measure_bytes=False):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                for key, v in count(args, kwargs, out,
                                    spans[parent][0] if parent >= 0 else None).items():
                    counts[key] += v
            if measure_bytes:
                counts[name + ".bytes"] += _array_bytes(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_calls(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._patches:
            return
        modules = [m for n, m in sys.modules.items()
                   if n == "spdelab" or n.startswith("spdelab.")]
        for name, owner, attr, opts in self.targets:
            orig = owner.__dict__.get(attr)
            if orig is None:    # removed from the program: its metrics read zero
                continue
            if opts.get("calls_only"):
                wrapped = self._wrap_calls(name, orig)
            else:
                wrapped = self._wrap_span(name, orig, opts.get("count"), opts.get("bytes", False))
            owners = [owner] if inspect.isclass(owner) else \
                [m for m in modules if m.__dict__.get(attr) is orig]
            for o in owners:
                self._patches.append((o, attr, orig))
                setattr(o, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def take(self) -> dict:
        """Aggregate and clear what was recorded since the last call:
        ``{"spans": {name: [inclusive_s, self_s, calls]}, "counts": {...},
        "records": [[name, start, end, parent], ...]}``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = {}
        for i, (name, t0, t1, _) in enumerate(spans):
            a = agg.setdefault(name, [0.0, 0.0, 0])
            a[0] += t1 - t0
            a[1] += (t1 - t0) - child[i]
            a[2] += 1
        out = {"spans": agg, "counts": dict(self.counts), "records": [list(s) for s in spans]}
        spans.clear()
        self.counts.clear()
        return out
