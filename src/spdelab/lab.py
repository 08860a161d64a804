"""Long-horizon experiments: decay to the invariant point under vanishing
coefficients, Cauchy diagnostics for the existence of limiting laws via the
shifted-noise coupling, uniqueness on affine subspaces under common noise,
and the divergence demonstrations.

Every verdict names one of the tool's documented invariants (see README)
so reports can be audited line by line:

  decay-bound, decay-rate, epsilon-positive, p1-in-kernel,
  coefficients-vanish-at-anchor, deterministic-p1, cauchy-decay,
  coupling-identity, pairwise-contraction, same-limit, distinct-limit-shift,
  variance-linear-growth, second-moment-exponential-growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (Scenario, mean_stderr, obs_norm2, simulate_coupled_ensemble,
                     simulate_ensemble, simulate_pair_ensemble, snapshot_grid)
from .errors import ContractViolation, HypothesisViolated
from .gdc import ConvergenceFit, fit_exponential
from .wasserstein import EmpiricalLaw, w2_1d, w2_assignment

PROBE_SEED = 52_009


@dataclass(frozen=True)
class Verdict:
    name: str
    status: str        # "pass" | "fail" | "diverges"
    invariant: str
    detail: str


@dataclass(eq=False)
class ConvergenceReport:
    scenario_id: str
    experiment: str
    times: np.ndarray
    stats: dict = field(default_factory=dict)
    stderr: dict = field(default_factory=dict)
    fitted: dict = field(default_factory=dict)
    theoretical: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.status == "pass" for v in self.verdicts)

    @property
    def diverged(self) -> bool:
        return any(v.status == "diverges" for v in self.verdicts)


def audit_vanishing_hypotheses(sc: Scenario, x, n_probes: int = 32) -> None:
    """Checks the structural hypotheses of the vanishing-coefficient decay:
    the flag itself, ran(P1) inside ker(A), and all coefficients vanishing at
    the anchor point P1 x."""
    if not sc.flags.vanishing_on_H1:
        raise HypothesisViolated("vanishing-coefficients-flag",
                                 "scenario does not declare vanishing coefficients on the P1 range")
    space = sc.space
    a = sc.op.generator_matrix()
    gen = np.random.Generator(np.random.Philox(PROBE_SEED))
    probes = np.vstack([np.asarray(x, dtype=float),
                        gen.standard_normal((n_probes, sc.dim))])
    kerdef = np.sqrt(space.norm2_rows(sc.P1.apply(probes) @ a.T)).max()
    if kerdef > 1e-10:
        raise HypothesisViolated("p1-in-kernel",
                                 f"max ||A P1 p|| = {kerdef:.3e} over probes")
    anchor = sc.P1.apply(np.asarray(x, dtype=float))
    if sc.drift is not None:
        v = space.norm(sc.drift(anchor[None, :])[0])
        if v > 1e-12:
            raise HypothesisViolated("coefficients-vanish-at-anchor", f"||F(P1 x)|| = {v:.3e}")
    if sc.sigma is not None and sc.qwiener is not None:
        cols = sc.sigma.columns(anchor)
        v = max(space.norm(cols[:, j]) for j in range(cols.shape[1]))
        if v > 1e-12:
            raise HypothesisViolated("coefficients-vanish-at-anchor",
                                     f"||sigma(P1 x)|| column norm = {v:.3e}")
    if sc.jumps is not None and sc.jumps.total_rate > 0:
        v = math.sqrt(sc.jumps.second_moment(space, anchor))
        if v > 1e-12:
            raise HypothesisViolated("coefficients-vanish-at-anchor",
                                     f"jump second moment at P1 x = {v:.3e}")


def vanishing_coeff_experiment(sc: Scenario, x, dt: float, horizon: float,
                               n_traj: int, seed: int, snapshot_spacing: float = 0.25,
                               rate_budget: float = 0.85, threads: int = 1) -> ConvergenceReport:
    """Decay of E ||X_t - P1 x||^2 against the certified envelope
    e^{-eps t} ||P0 x||^2, plus an exponential-rate fit."""
    audit_vanishing_hypotheses(sc, x)
    cert = sc.contractive_certificate()
    x = np.asarray(x, dtype=float)
    anchor = sc.P1.apply(x)
    times = snapshot_grid(horizon, dt, snapshot_spacing)
    obs = {"dist2": obs_norm2(sc.space, center=anchor)}
    ens = simulate_ensemble(sc, x, dt, int(round(horizon / dt)), n_traj, seed,
                            times, observables=obs, threads=threads)
    mean, se = mean_stderr(ens.observables["dist2"])
    p0x2 = sc.space.norm2(x - anchor)
    bound = p0x2 * np.exp(-cert.epsilon * times)
    rep = ConvergenceReport(scenario_id=sc.scenario_id, experiment="vanishing-coefficients",
                            times=times,
                            stats={"dist2_mean": mean, "bound": bound},
                            stderr={"dist2_mean": se},
                            theoretical={"epsilon": cert.epsilon})
    ok_bound = bool(np.all(mean <= bound + 3.0 * se + 1e-12 * max(p0x2, 1.0)))
    rep.verdicts.append(Verdict("bound", "pass" if ok_bound else "fail", "decay-bound",
                                "second moment within the decay envelope at every snapshot"))
    if p0x2 == 0.0:
        flat = bool(np.all(mean <= 3.0 * se + 1e-20))
        rep.verdicts.append(Verdict("rate", "pass" if flat else "fail", "decay-rate",
                                    "started at the invariant point; no decay to fit"))
        return rep
    usable = mean > max(mean[0], 1e-300) * 1e-12
    fit = fit_exponential(times[usable], mean[usable])
    rep.fitted["decay"] = fit
    ok_rate = fit.rate >= rate_budget * cert.epsilon
    rep.verdicts.append(Verdict("rate", "pass" if ok_rate else "fail", "decay-rate",
                                f"fitted {fit.rate:.4g} vs {rate_budget:.2f} x eps = "
                                f"{rate_budget * cert.epsilon:.4g}"))
    return rep


def audit_deterministic_p1(sc: Scenario, x, dt: float, horizon: float, seed: int,
                           n_check: int = 64):
    """Verifies that P1 X_t carries no randomness: across a small ensemble the
    projected trajectories must agree bit for bit. Returns the snapshot times,
    every 0.25 (or every step if dt is longer), and the deterministic
    projected path at them."""
    if not sc.flags.deterministic_P1:
        raise HypothesisViolated("deterministic-p1",
                                 "scenario does not declare a deterministic P1 part")
    times = snapshot_grid(horizon, dt, 0.25)
    ens = simulate_ensemble(sc, x, dt, int(round(horizon / dt)), n_check, seed, times)
    p1 = ens.states @ sc.P1.matrix.T
    spread = np.abs(p1 - p1[:, :1, :]).max()
    if spread != 0.0:
        raise HypothesisViolated("deterministic-p1",
                                 f"sample spread of P1 X_t is {spread:.3e}, expected exactly 0")
    return times, p1[:, 0, :]


def limit_existence_experiment(sc: Scenario, x, tau_list, T: float, dt: float,
                               n_traj: int, seed: int, snapshot_spacing: float = 0.25,
                               rate_budget: float = 0.85, threads: int = 1) -> ConvergenceReport:
    """Cauchy diagnostic sqrt(E ||Y_t^{x,tau} - X_{t+tau}^x||^2) for each tau,
    an upper bound for the Wasserstein gap between p_t and p_{t+tau}."""
    cert = sc.contractive_certificate()
    x = np.asarray(x, dtype=float)
    p1_times, p1_path = audit_deterministic_p1(sc, x, dt, T, seed + 1)
    p1_dev = np.sqrt(sc.space.norm2_rows(p1_path - p1_path[-1]))
    times = snapshot_grid(T, dt, snapshot_spacing)
    if p1_dev.max() <= 1e-12:
        theoretical = cert.epsilon / 2.0
        delta_fit = math.inf
    else:
        delta_fit = fit_exponential(p1_times, p1_dev ** 2).rate
        theoretical = min(cert.epsilon, delta_fit) / 2.0
    rep = ConvergenceReport(scenario_id=sc.scenario_id, experiment="limit-existence",
                            times=times,
                            theoretical={"epsilon": cert.epsilon, "delta_fit": delta_fit,
                                         "rate": theoretical})
    n_steps = int(round(T / dt))
    for tau in tau_list:
        tau_steps = int(round(tau / dt))
        if abs(tau_steps * dt - tau) > 1e-9 * max(1.0, tau):
            raise ContractViolation("every tau must be a multiple of dt")
        res = simulate_coupled_ensemble(sc, x, tau_steps, dt, n_steps, n_traj,
                                        seed, times, threads=threads)
        gap2_mean, gap2_se = mean_stderr(res.coupling_gap2)
        diag = np.sqrt(gap2_mean)
        key = f"diag_tau={tau:g}"
        rep.stats[key] = diag
        rep.stderr[key] = gap2_se
        if tau_steps == 0:
            ok = bool(np.all(diag == 0.0))
            rep.verdicts.append(Verdict(key, "pass" if ok else "fail", "coupling-identity",
                                        "zero shift must reproduce the same path"))
            continue
        head = diag[times <= max(times[0] + 1e-9, 1.0)].max()
        if diag[-1] > 4.0 * max(head, 1e-300) and diag[-1] > 1e-6:
            rep.verdicts.append(Verdict(key, "diverges", "cauchy-decay",
                                        f"diagnostic grew from {head:.3g} to {diag[-1]:.3g}"))
            continue
        fit = fit_exponential(times, diag)
        rep.fitted[key] = fit
        ok = fit.rate >= rate_budget * theoretical
        rep.verdicts.append(Verdict(key, "pass" if ok else "fail", "cauchy-decay",
                                    f"fitted {fit.rate:.4g} vs {rate_budget:.2f} x "
                                    f"{theoretical:.4g}"))
    return rep


def affine_uniqueness_experiment(sc: Scenario, x, y, T: float, dt: float, n_traj: int,
                                 seed: int, snapshot_spacing: float = 0.5,
                                 w2_budget: int = 512, same_floor: float = 0.05,
                                 shift_tol: float = 0.02, threads: int = 1) -> ConvergenceReport:
    """Same P1 part: common-noise contraction and a terminal assignment-W2
    floor. Distinct P1 parts: the limiting laws separate by exactly the
    projected shift along its direction."""
    cert = sc.contractive_certificate()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    space = sc.space
    shift = sc.P1.apply(x) - sc.P1.apply(y)
    shift_norm = space.norm(shift)
    times = snapshot_grid(T, dt, snapshot_spacing)
    n_steps = int(round(T / dt))
    rep = ConvergenceReport(scenario_id=sc.scenario_id, experiment="affine-uniqueness",
                            times=times, theoretical={"epsilon": cert.epsilon,
                                                      "p1_shift": shift_norm})
    if shift_norm <= 1e-12:
        res = simulate_pair_ensemble(sc, x, y, dt, n_steps, n_traj, seed, times,
                                     keep_terminal=True, threads=threads)
        mean, se = mean_stderr(res.gap2)
        gap0 = space.norm2(x - y)
        bound = gap0 * np.exp(-cert.epsilon * times)
        rep.stats["pair_gap2"] = mean
        rep.stderr["pair_gap2"] = se
        rep.stats["contraction_bound"] = bound
        ok = bool(np.all(mean <= bound + 3.0 * se + 1e-12 * max(gap0, 1.0)))
        rep.verdicts.append(Verdict("contraction", "pass" if ok else "fail",
                                    "pairwise-contraction",
                                    "common-noise gap within e^{-eps t} envelope"))
        nb = min(w2_budget, n_traj)
        w2 = w2_assignment(EmpiricalLaw(res.x_terminal[:nb]),
                           EmpiricalLaw(res.y_terminal[:nb]))
        rep.stats["terminal_w2"] = np.array([w2])
        ok = w2 < same_floor
        rep.verdicts.append(Verdict("terminal-w2", "pass" if ok else "fail", "same-limit",
                                    f"assignment W2 = {w2:.4g} vs floor {same_floor:g} "
                                    f"at N = {nb}"))
        return rep
    v = shift / shift_norm
    if space.kind == "euclidean":
        w = v if space.weight is None else v * space.weight
        obs = {"p1coord": lambda X: X @ w}
    else:
        obs = {"p1coord": lambda X: space.inner_rows(X, np.broadcast_to(v, X.shape))}
    ens_x = simulate_ensemble(sc, x, dt, n_steps, n_traj, seed, times,
                              observables=obs, threads=threads)
    ens_y = simulate_ensemble(sc, y, dt, n_steps, n_traj, seed, times,
                              observables=obs, threads=threads)
    sep = np.array([w2_1d(ens_x.observables["p1coord"][i], ens_y.observables["p1coord"][i])
                    for i in range(len(times))])
    rep.stats["p1_w2"] = sep
    err = abs(sep[-1] - shift_norm)
    ok = err <= shift_tol
    rep.verdicts.append(Verdict("p1-separation", "pass" if ok else "fail",
                                "distinct-limit-shift",
                                f"terminal W2 of the shift coordinate = {sep[-1]:.4g}, "
                                f"|shift| = {shift_norm:.4g}, err = {err:.3g}"))
    return rep


def counterexample_experiment(sc: Scenario, x, T: float, dt: float, n_traj: int,
                              seed: int, snapshot_spacing: float = 0.5,
                              threads: int = 1) -> ConvergenceReport:
    """Divergence demonstration: classifies the growth of the projected part
    as linear-in-time variance (noise accumulating on the kernel) or
    exponential second moment (anti-dissipative block)."""
    x = np.asarray(x, dtype=float)
    times = snapshot_grid(T, dt, snapshot_spacing)
    n_steps = int(round(T / dt))
    ens = simulate_ensemble(sc, x, dt, n_steps, n_traj, seed, times, threads=threads)
    p1 = ens.states @ sc.P1.matrix.T
    center = p1.mean(axis=1, keepdims=True)
    var = sc.space.norm2_rows((p1 - center).reshape(-1, sc.dim)).reshape(p1.shape[:2]).mean(axis=1)
    m2 = sc.space.norm2_rows(p1.reshape(-1, sc.dim)).reshape(p1.shape[:2]).mean(axis=1)
    rep = ConvergenceReport(scenario_id=sc.scenario_id, experiment="counterexample",
                            times=times, stats={"p1_var": var, "p1_m2": m2})
    if var.max() > 1e-12 * max(m2.max(), 1.0):
        slope, icpt = np.polyfit(times, var, 1)
        fitvals = slope * times + icpt
        ss_res = float(np.sum((var - fitvals) ** 2))
        ss_tot = float(np.sum((var - var.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        rep.fitted["variance_linear"] = ConvergenceFit(
            prefactor=float(icpt), rate=float(slope),
            residual=float(math.sqrt(ss_res / len(var))), n_points=len(var))
        if slope > 0 and r2 >= 0.98:
            rep.verdicts.append(Verdict("growth", "diverges", "variance-linear-growth",
                                        f"Var(P1 X_t) grows linearly, slope {slope:.4g} "
                                        f"(R^2 = {r2:.4f})"))
            return rep
    fit = fit_exponential(times, m2)
    rep.fitted["m2_exponential"] = fit
    if fit.rate < -0.05 and m2[-1] > 4.0 * m2[0]:
        rep.verdicts.append(Verdict("growth", "diverges", "second-moment-exponential-growth",
                                    f"E||P1 X_t||^2 grows exponentially at rate {-fit.rate:.4g}"))
    else:
        rep.verdicts.append(Verdict("growth", "fail", "second-moment-exponential-growth",
                                    "no divergence detected; the scenario may satisfy the "
                                    "convergence hypotheses"))
    return rep
