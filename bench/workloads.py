"""The four benchmark workloads.

Each workload builds its scenarios in ``setup`` (document loading,
certification and audits: the work counted in ``setup_s``), draws its inputs
from the workload seed, and lists its operations. An operation is one
experiment call plus the check of its outputs; it returns the arrays that
must be bit-identical across rounds and thread counts, and the list of
problems its check found (empty when the outputs are correct).

Why these four: each one puts a different layer on the critical path, so an
optimisation of one layer has a workload that exercises it and others that
predict no change.

- ou-collapse: linear additive dynamics, so the engine collapses whole
  chunks of steps into matrix products; noise generation dominates.
- forward-curve: the HJMM forward-curve model on a 2,048-point grid; the
  volatility and drift kernels and the grid shift dominate.
- lockstep-pairs: per-step stepping of pairs and shifted couplings on 2-D
  states, with jumps; Python-level step overhead and small kernels dominate.
- limit-analysis: no time stepping; certification, the limiting
  characteristic function and the Wasserstein solvers do the work.
"""

from __future__ import annotations

import math
import os

import numpy as np

from spdelab import engine, gdc, hilbert, hjmm, lab, noise, oulevy, scenarios, wasserstein

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(ROOT, "scenarios")

# acceptance tolerances (tests/acceptance_suite.py) reused by the checks
C01_TOL = 1e-9          # certified lambda0 against its closed form
C02_AUDIT = 1e-8        # quadratic-form audit (enforced by make_certificate)
C03_W2_TOL = 0.02       # W2 to a Gaussian closed form at 100,000 samples
C03_SAMPLES = 100_000
C04_CF_TOL = 1e-6       # limiting characteristic function against its closed form
C10_RATE_BUDGET = 0.85  # fitted decay rate against the contraction margin
C11_GAUSS_W2_TOL = 0.05
KS_ALPHA = 1e-4         # two samples of one law fall above this level once in 10^4 seeds


def _load(name):
    return scenarios.load_document(os.path.join(SCENARIO_DIR, name))


def _failed_verdicts(verdicts):
    return [f"verdict {v.name}: {v.status} ({v.detail})" for v in verdicts if v.status != "pass"]


class SineDrift:
    """Benchmark-built drift ``F(x) = a sin(x)`` of the 2x2 block scenario; a
    class so the tracer can wrap its ``__call__`` as a coefficient call."""

    def __init__(self, amplitude: float):
        self.amplitude = amplitude

    def __call__(self, X):
        return self.amplitude * np.sin(X)


TRACE_TARGETS = [("engine.coeff", SineDrift, "__call__", {})]


class OuCollapse:
    name = "ou-collapse"
    simulation = True

    def setup(self, seed: int):
        doc = _load("ou-decoupled-2d.json")
        self.sc = scenarios.build_scenario(doc)
        scenarios.build_ou_scenario(doc)      # fits the semigroup rate, audits the OU hypotheses
        self.sc.lipschitz_audit()
        cfg = doc["experiment"]["lab"]
        self.T, self.dt, self.n_traj = cfg["T"], cfg["dt"], cfg["traj"]
        self.n_steps = int(round(self.T / self.dt))
        rng = np.random.default_rng(seed)
        x1 = rng.uniform(4.0, 10.0)
        self.x = np.array([rng.uniform(2.0, 8.0), x1])
        self.y = np.array([rng.uniform(2.0, 8.0), x1 - rng.uniform(2.0, 6.0)])
        self.seed_pair, self.seed_limit = (int(s) for s in rng.integers(1, 2**31, 2))

    def noise_shape(self):
        return self.sc.qwiener, self.dt, self.n_steps

    def operations(self, threads: int):
        def distinct_limits():
            rep = lab.affine_uniqueness_experiment(self.sc, self.x, self.y, self.T, self.dt,
                                                   self.n_traj, self.seed_pair,
                                                   threads=threads)
            return [rep.stats["p1_w2"]], _failed_verdicts(rep.verdicts)

        def gaussian_limit():
            # dX0 = a X0 dt + sqrt(lam) dW on the non-projected coordinate
            a = float(self.sc.op.generator[0, 0])
            lam = float(self.sc.qwiener.eigenvalues @ self.sc.sigma.matrix[0] ** 2)
            ens = engine.simulate_ensemble(self.sc, self.x, self.dt, self.n_steps, self.n_traj,
                                           self.seed_limit, [self.T],
                                           observables={"x0": engine.obs_coordinate(0)},
                                           threads=threads)
            x0 = ens.observables["x0"][-1]
            mean = self.x[0] * math.exp(a * self.T)
            std = math.sqrt(lam * (1.0 - math.exp(2.0 * a * self.T)) / (-2.0 * a))
            w2 = wasserstein.w2_1d_to_gaussian(x0, mean, std)
            # the c03 tolerance, rescaled from its sample count by 1/sqrt(N)
            tol = C03_W2_TOL * math.sqrt(C03_SAMPLES / len(x0))
            bad = [] if w2 <= tol else [f"W2 to the Gaussian limit {w2:.4g} > {tol:.4g}"]
            return [ens.observables["x0"]], bad

        return [("distinct-limits", distinct_limits), ("gaussian-limit", gaussian_limit)]


class ForwardCurve:
    name = "forward-curve"
    simulation = True
    n_traj = 64
    horizon = 6.0

    def setup(self, seed: int):
        self.space = hjmm.forward_space(3.0, n=2048)
        self.vol = hjmm.hjmm_example_volatility(self.space, beta_prime=1000.0)
        rng = np.random.default_rng(seed)
        g = self.space.grid
        level = rng.uniform(0.02, 0.08)
        slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.06)
        self.h0 = level + slope * np.exp(-rng.uniform(1.0, 3.0) * g)
        probes = [self.h0] + [rng.uniform(0.0, 0.1) + rng.uniform(-0.1, 0.1)
                              * np.exp(-rng.uniform(0.5, 4.0) * g) for _ in range(3)]
        hjmm.audit_volatility(self.vol, self.space, probes)
        self.seed = int(rng.integers(1, 2**31))

    def noise_shape(self):
        dt = self.space.dx
        return noise.diagonal_qwiener([1.0]), dt, int(round(self.horizon / dt))

    def operations(self, threads: int):
        def decay_to_long_rate():
            rep = hjmm.hjmm_ergodicity_experiment(self.space, self.vol, self.h0,
                                                  horizon=self.horizon, n_traj=self.n_traj,
                                                  seed=self.seed, threads=threads)
            bad = [f"verdict {n}: {s} ({d})" for n, s, d in rep.verdicts if s != "pass"]
            if not rep.fitted_rate >= C10_RATE_BUDGET * rep.margin:
                bad.append(f"fitted rate {rep.fitted_rate:.4g} < "
                           f"{C10_RATE_BUDGET} x margin {rep.margin:.4g}")
            if rep.long_rate_max_dev != 0.0:
                bad.append(f"long rate moved by {rep.long_rate_max_dev:.3g}")
            return [rep.decay_mean, rep.decay_se], bad

        return [("decay-to-long-rate", decay_to_long_rate)]


class LockstepPairs:
    name = "lockstep-pairs"
    simulation = True
    stability_traj = 2000
    coupling_traj = 1000
    dt = 1e-3
    T = 3.0
    taus = (0.25, 0.5, 1.0)

    def setup(self, seed: int):
        a = np.array(_load("gdc-example-2x2.json")["operator"]["generator"])
        p1 = hilbert.coordinate_projection(2, [1])
        cert = gdc.make_certificate(a, p1, lambda1=1.5, L_F=0.01)
        self.block = engine.Scenario(op=hilbert.matrix_operator(hilbert.euclidean_space(2), a),
                                     P1=p1, qwiener=noise.diagonal_qwiener([1.0, 1.0]),
                                     sigma=engine.ConstantSigma(0.3 * np.eye(2)),
                                     drift=SineDrift(0.1), certificate=cert,
                                     scenario_id="block2x2")
        doc = _load("ou-decoupled-2d.json")
        del doc["experiment"]
        # additive Gaussian-mark jumps on the non-projected coordinate only, so
        # P X_t stays deterministic while the collapse is switched off
        doc["coefficients"]["gamma"] = {
            "builder": "additive", "rate": 2.0,
            "marks": {"kind": "gaussian-mark", "mean": [0.0, 0.0], "cov_diag": [0.25, 0.0]}}
        self.jumpy = scenarios.build_scenario(doc)
        self.block.lipschitz_audit()
        self.jumpy.lipschitz_audit()
        rng = np.random.default_rng(seed)
        c = rng.uniform(-2.0, 2.0)
        self.x = np.array([rng.uniform(-3.0, 3.0), c])
        self.y = np.array([rng.uniform(-3.0, 3.0), c])
        self.x_coupled = np.array([rng.uniform(2.0, 6.0), rng.uniform(-5.0, 5.0)])
        self.seed_pair, self.seed_coupled = (int(s) for s in rng.integers(1, 2**31, 2))

    def noise_shape(self):
        return self.block.qwiener, self.dt, int(round(self.T / self.dt))

    def operations(self, threads: int):
        n_steps = int(round(self.T / self.dt))

        def stability():
            rep = engine.stability_check(self.block, self.x, self.y, self.dt, n_steps,
                                         self.stability_traj, self.seed_pair,
                                         snapshot_times=np.arange(0.25, self.T + 1e-3, 0.25),
                                         threads=threads)
            bad = [] if rep.ok else [
                f"stability bound violated by {float(np.max(rep.violations - rep.slack)):.3g}"]
            return [rep.lhs_mean, rep.rhs], bad

        def limit_existence():
            rep = lab.limit_existence_experiment(self.jumpy, self.x_coupled, self.taus, self.T,
                                                 self.dt, self.coupling_traj, self.seed_coupled,
                                                 threads=threads)
            bad = _failed_verdicts(rep.verdicts)
            bad += [f"verdict {v.name} checks {v.invariant}" for v in rep.verdicts
                    if v.invariant != "cauchy-decay"]
            return [rep.stats[k] for k in sorted(rep.stats)], bad

        return [("stability", stability), ("limit-existence", limit_existence)]


class LimitAnalysis:
    name = "limit-analysis"
    simulation = False
    sweep = 32
    u_points = 24
    assignment_pairs = 4
    assignment_n = 512
    samples = 100_000

    def setup(self, seed: int):
        block_doc = _load("gdc-example-2x2.json")
        ou_doc = _load("ou-decoupled-2d.json")
        scenarios.build_scenario(block_doc)
        self.ou = scenarios.build_ou_scenario(ou_doc)
        self.block_a = np.array(block_doc["operator"]["generator"])
        self.decoupled_a = np.array(ou_doc["operator"]["generator"])
        self.p1 = hilbert.coordinate_projection(2, [1])
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.5, 2.0, 2)
        self.geometries = [("euclidean", hilbert.euclidean_space(2), np.ones(2)),
                           ("weighted", hilbert.weighted_space(w), w)]
        # the block needs lambda1 > 1 + w0 / (4 w1) for any lambda0 > 0
        self.block_sweep = {g: rng.uniform(1.05 + ww[0] / (4.0 * ww[1]), 4.0, self.sweep)
                            for g, _, ww in self.geometries}
        self.block_sweep["euclidean"][0] = 1.5        # the c01 instance
        self.decoupled_sweep = {g: rng.uniform(0.0, 3.0, self.sweep) for g, _, _ in self.geometries}
        self.x_cf = np.array([rng.uniform(-5.0, 5.0), rng.uniform(-10.0, 10.0)])
        self.u_grid = rng.uniform(-2.0, 2.0, (self.u_points, 2))
        n = self.assignment_n
        self.assign_sets = [(rng.standard_normal((n, 2)), rng.standard_normal((n, 2)),
                             rng.permutation(n)) for _ in range(self.assignment_pairs)]
        self.xs = rng.standard_normal(self.samples)
        self.xs_same = rng.standard_normal(self.samples)
        self.ys = 2.0 + 2.0 * rng.standard_normal(self.samples)

    def noise_shape(self):
        return None

    def operations(self, threads: int):
        ops = []

        def certificate(a, space, weights, lambda1, kind):
            def op():
                cert = gdc.make_certificate(a, self.p1, lambda1, tol=1e-10, space=space)
                # closed forms of the best constant for the two generators
                expected = 1.0 if kind == "decoupled" else \
                    1.0 - weights[0] / (4.0 * weights[1] * (lambda1 - 1.0))
                err = abs(cert.lambda0 - expected)
                bad = [] if err <= C01_TOL else [f"lambda0 {cert.lambda0!r} off by {err:.3g}"]
                if cert.audit_max_violation > C02_AUDIT:
                    bad.append(f"audit violation {cert.audit_max_violation:.3g}")
                return [np.array([cert.lambda0, cert.epsilon])], bad
            return op

        for g, space, w in self.geometries:
            for lam in self.block_sweep[g]:
                ops.append((f"certify-block-{g}",
                            certificate(self.block_a, space, w, lam, "block")))
            for lam in self.decoupled_sweep[g]:
                ops.append((f"certify-decoupled-{g}",
                            certificate(self.decoupled_a, space, w, lam, "decoupled")))

        def limiting_cf(u):
            def op():
                cf = oulevy.limiting_cf(self.ou, self.x_cf, u, t_cut=40.0, quad_step=0.005)
                # cov diag(1, 0) under A = diag(-1, 0): the integral is -u0^2 / 4
                closed = complex(np.exp(1j * self.x_cf[1] * u[1] - u[0] ** 2 / 4.0))
                err = abs(cf.value - closed)
                bad = [] if err <= C04_CF_TOL else [f"CF off its closed form by {err:.3g}"]
                return [np.array([cf.value.real, cf.value.imag])], bad
            return op

        ops += [("limiting-cf", limiting_cf(u)) for u in self.u_grid]

        def assignment(a, b, perm):
            def op():
                dab = wasserstein.w2_assignment(a, b)
                dba = wasserstein.w2_assignment(b, a)
                same = wasserstein.w2_assignment(a, a[perm])
                bad = [] if abs(dab - dba) <= 1e-12 else [f"W2 asymmetric: {dab!r} vs {dba!r}"]
                if same != 0.0:
                    bad.append(f"W2 of a permuted sample is {same!r}")
                return [np.array([dab, dba])], bad
            return op

        ops += [("w2-assignment", assignment(*s)) for s in self.assign_sets]

        def sort_estimators():
            w12 = wasserstein.w2_1d(self.xs, self.ys)
            wg = wasserstein.w2_1d_to_gaussian(self.xs, 0.0, 1.0)
            ks_same = wasserstein.ks_statistic(self.xs, self.xs_same)
            ks_diff = wasserstein.ks_statistic(self.xs, self.ys)
            crit = wasserstein.ks_critical_value(self.samples, self.samples, alpha=KS_ALPHA)
            bad = []
            if abs(w12 - math.sqrt(5.0)) > C11_GAUSS_W2_TOL:
                bad.append(f"W2(N(0,1), N(2,4)) = {w12:.4g}, expected sqrt(5)")
            if wg > C03_W2_TOL * math.sqrt(C03_SAMPLES / self.samples):
                bad.append(f"W2 to N(0,1) = {wg:.4g}")
            if ks_same >= crit or ks_diff <= crit:
                bad.append(f"KS {ks_same:.4g} (same law) / {ks_diff:.4g} (different) "
                           f"vs critical {crit:.4g}")
            return [np.array([w12, wg, ks_same, ks_diff])], bad

        ops.append(("sort-estimators", sort_estimators))
        return ops


WORKLOADS = {w.name: w for w in (OuCollapse, ForwardCurve, LockstepPairs, LimitAnalysis)}
