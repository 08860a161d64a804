"""Long-horizon experiments: decay to the invariant point under vanishing
coefficients, Cauchy diagnostics for the existence of limiting laws via the
shifted-noise coupling, uniqueness on affine subspaces under common noise,
and the divergence demonstrations.

Each hypothesis an experiment rests on is measured on the scenario by an
audit below, never declared; a failed audit names its invariant.

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

from .engine import (MAX_STEPS, Scenario, mean_stderr, obs_norm2, simulate_coupled_ensemble,
                     simulate_ensemble, simulate_ensembles, simulate_pair_ensemble,
                     snapshot_grid)
from .errors import BudgetExceeded, ContractViolation, HypothesisViolated
from .gdc import DECAY_FIT_FLOOR, FIT_BURN, RATE_BUDGET, ConvergenceFit, fit_exponential
from .wasserstein import ASSIGNMENT_BUDGET, EmpiricalLaw, w2_1d, w2_assignment

PROBE_SEED = 52_009
VANISHING_PROBES = 32       # random probes of the p1-in-kernel audit
P1_CHECK_TRAJ = 64          # trajectories of the deterministic-P1 audit
SAME_FLOOR = 0.05           # assignment W2 below which two limits are the same
SHIFT_TOL = 0.02            # error allowed in the W2 separation of distinct limits


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


def _require_fit_points(times, T: float, spacing: float) -> None:
    """A decay fit needs 4 snapshots (see ``fit_exponential``); checked before simulating."""
    if len(times) < 4:
        raise ContractViolation(f"T = {T!r} with spacing {spacing!r} gives {len(times)} "
                                "snapshots to fit; the decay fit needs at least 4")


def require_decay_fit(dist2: float, times, T: float, spacing: float) -> None:
    """Before simulating: a start ``x`` at squared distance ``dist2 > 0`` from
    its anchor needs ``dist2`` above ``DECAY_FIT_FLOOR`` and 4 snapshots from
    ``FIT_BURN`` on for ``vanishing_decay``'s fit."""
    if 0.0 < dist2 <= DECAY_FIT_FLOOR:
        raise ContractViolation(f"x: the squared distance {dist2:.3g} to its anchor is positive "
                                f"but not above the decay fit's floor {DECAY_FIT_FLOOR:g}")
    if dist2 != 0.0:        # a start at the anchor has no decay to fit
        _require_fit_points(times[times >= FIT_BURN], T, spacing)


def nonvanishing_coefficient(sc: Scenario, point) -> str | None:
    """The first coefficient whose norm at ``point`` exceeds 1e-12, with that
    norm, or None when every coefficient vanishes there."""
    space = sc.space
    if sc.drift is not None:
        v = space.norm(sc.drift(point[None, :])[0])
        if v > 1e-12:
            return f"||F(P1 x)|| = {v:.3e}"
    if sc.sigma is not None and sc.qwiener is not None:
        cols = sc.sigma.columns(point)
        v = max(space.norm(cols[:, j]) for j in range(cols.shape[1]))
        if v > 1e-12:
            return f"||sigma(P1 x)|| column norm = {v:.3e}"
    if sc.jumps is not None:
        v = math.sqrt(sc.jumps.second_moment(space))
        if v > 1e-12:
            return f"jump second moment at P1 x = {v:.3e}"
    return None


def audit_vanishing_hypotheses(sc: Scenario, x) -> None:
    """Measures the structural hypotheses of the vanishing-coefficient decay:
    ran(P1) inside ker(A) on random probes, and all coefficients vanishing at
    the anchor point P1 x."""
    gen = np.random.Generator(np.random.Philox(PROBE_SEED))
    probes = np.vstack([np.asarray(x, dtype=float),
                        gen.standard_normal((VANISHING_PROBES, sc.dim))])
    kerdef = np.sqrt(sc.space.norm2_rows(sc.op.apply_generator_rows(sc.P1.apply(probes)))).max()
    if kerdef > 1e-10:
        raise HypothesisViolated("p1-in-kernel",
                                 f"max ||A P1 p|| = {kerdef:.3e} over probes")
    bad = nonvanishing_coefficient(sc, sc.P1.apply(np.asarray(x, dtype=float)))
    if bad is not None:
        raise HypothesisViolated("coefficients-vanish-at-anchor", bad)


def vanishing_decay(times, mean, se, epsilon: float, T: float, spacing: float):
    """The vanishing-coefficient decay rule for E ||X_t - P1 x||^2 (``mean``,
    ``se``) on the snapshots of ``T`` and ``spacing``: the envelope
    mean[0] e^{-eps t} within 3 se + 1e-12 mean[0], and a fit from
    ``FIT_BURN`` on, or at the anchor (mean[0] = 0) no fit and a series within
    3 se + 1e-20 of zero. A series that falls below the fit's floor before 4
    snapshots from ``FIT_BURN`` on names T and the spacing. Returns the
    envelope, the fit (or None) and the decay-bound and decay-rate verdicts."""
    bound = mean[0] * np.exp(-epsilon * times)
    ok_bound = bool(np.all(mean <= bound + 3.0 * se + 1e-12 * mean[0]))
    verdicts = [Verdict("bound", "pass" if ok_bound else "fail", "decay-bound",
                        "second moment within the decay envelope at every snapshot")]
    if mean[0] == 0.0:
        flat = bool(np.all(mean <= 3.0 * se + 1e-20))
        verdicts.append(Verdict("rate", "pass" if flat else "fail", "decay-rate",
                                "started at the invariant point; no decay to fit"))
        return bound, None, verdicts
    keep = (times >= FIT_BURN) & (mean > max(mean[0], DECAY_FIT_FLOOR) * 1e-12)
    if keep.sum() < 4:
        raise ContractViolation(f"T = {T!r} with spacing {spacing!r}: the decay series is above "
                                f"1e-12 of its start at {keep.sum()} snapshots from {FIT_BURN:g} "
                                "on, and the decay fit needs 4; take a finer spacing")
    fit = fit_exponential(times[keep], mean[keep])
    ok_rate = fit.rate >= RATE_BUDGET * epsilon
    verdicts.append(Verdict("rate", "pass" if ok_rate else "fail", "decay-rate",
                            f"fitted {fit.rate:.4g} vs {RATE_BUDGET:.2f} x eps = "
                            f"{RATE_BUDGET * epsilon:.4g}"))
    return bound, fit, verdicts


def vanishing_coeff_experiment(sc: Scenario, x, dt: float, horizon: float,
                               n_traj: int, seed: int, snapshot_spacing: float = 0.25,
                               threads: int = 1) -> ConvergenceReport:
    """Decay of E ||X_t - P1 x||^2 under ``vanishing_decay``'s rule."""
    audit_vanishing_hypotheses(sc, x)
    cert = sc.contractive_certificate()
    x = np.asarray(x, dtype=float)
    anchor = sc.P1.apply(x)
    times = snapshot_grid(horizon, dt, snapshot_spacing)
    require_decay_fit(sc.space.norm2(x - anchor), times, horizon, snapshot_spacing)
    obs = {"dist2": obs_norm2(sc.space, center=anchor)}
    ens = simulate_ensemble(sc, x, dt, int(round(horizon / dt)), n_traj, seed,
                            times, observables=obs, threads=threads)
    mean, se = mean_stderr(ens.observables["dist2"])
    bound, fit, verdicts = vanishing_decay(times, mean, se, cert.epsilon, horizon,
                                           snapshot_spacing)
    return ConvergenceReport(scenario_id=sc.scenario_id, experiment="vanishing-coefficients",
                             times=times, stats={"dist2_mean": mean, "bound": bound},
                             stderr={"dist2_mean": se},
                             fitted={} if fit is None else {"decay": fit},
                             theoretical={"epsilon": cert.epsilon}, verdicts=verdicts)


def audit_deterministic_p1(sc: Scenario, x, dt: float, horizon: float, seed: int):
    """Measures that P1 X_t carries no randomness: across a small ensemble the
    projected trajectories must agree bit for bit. Returns the snapshot times,
    every 0.25 (or every step if dt is longer), and the deterministic
    projected path at them."""
    times = snapshot_grid(horizon, dt, 0.25)
    ens = simulate_ensemble(sc, x, dt, int(round(horizon / dt)), P1_CHECK_TRAJ, seed, times)
    p1 = ens.states @ sc.P1.matrix.T
    spread = np.abs(p1 - p1[:, :1, :]).max()
    if spread != 0.0:
        raise HypothesisViolated("deterministic-p1",
                                 f"sample spread of P1 X_t is {spread:.3e}, expected exactly 0")
    return times, p1[:, 0, :]


def limit_existence_experiment(sc: Scenario, x, tau_list, T: float, dt: float,
                               n_traj: int, seed: int, snapshot_spacing: float = 0.25,
                               threads: int = 1) -> ConvergenceReport:
    """Cauchy diagnostic sqrt(E ||Y_t^{x,tau} - X_{t+tau}^x||^2) for each tau,
    an upper bound for the Wasserstein gap between p_t and p_{t+tau}.

    Every tau is checked before anything is simulated: it must be finite,
    >= 0 and a multiple of dt, and T + tau must stay within MAX_STEPS steps.
    With some tau > 0 the snapshot grid must hold the 4 points a fit needs.
    """
    n_steps = int(round(T / dt))
    shifts = []                         # (tau, its grid steps)
    for tau in tau_list:
        if not (math.isfinite(tau) and tau >= 0):
            raise ContractViolation(f"tau_list: every tau must be finite and >= 0, got {tau!r}")
        if not n_steps + tau / dt <= MAX_STEPS:
            raise BudgetExceeded(f"tau_list: T + tau = {T + tau!r} is over the budget of "
                                 f"{MAX_STEPS} steps of dt")
        k = int(round(tau / dt))
        if abs(k * dt - tau) > 1e-9 * max(1.0, tau):
            raise ContractViolation(f"tau_list: every tau must be a multiple of dt, got {tau!r}")
        shifts.append((tau, k))
    times = snapshot_grid(T, dt, snapshot_spacing)
    if any(k > 0 for _, k in shifts):     # each fits its diagnostic
        _require_fit_points(times, T, snapshot_spacing)
    cert = sc.contractive_certificate()
    x = np.asarray(x, dtype=float)
    p1_times, p1_path = audit_deterministic_p1(sc, x, dt, T, seed + 1)
    p1_dev = np.sqrt(sc.space.norm2_rows(p1_path - p1_path[-1]))
    if p1_dev.max() <= 1e-12:
        theoretical = cert.epsilon / 2.0
        delta_fit = math.inf
    else:
        positive = np.count_nonzero(p1_dev ** 2)     # the one at T itself is 0
        if positive < 4:
            raise ContractViolation(f"T = {T!r}: P1 X moves, and its decay fit needs 4 positive "
                                    f"deviations from P1 X_T on the 0.25 grid, not {positive}")
        delta_fit = fit_exponential(p1_times, p1_dev ** 2).rate
        theoretical = min(cert.epsilon, delta_fit) / 2.0
    rep = ConvergenceReport(scenario_id=sc.scenario_id, experiment="limit-existence",
                            times=times,
                            theoretical={"epsilon": cert.epsilon, "delta_fit": delta_fit,
                                         "rate": theoretical})
    for tau, k in shifts:
        res = simulate_coupled_ensemble(sc, x, k, dt, n_steps, n_traj,
                                        seed, times, threads=threads)
        gap2_mean, gap2_se = mean_stderr(res.coupling_gap2)
        diag = np.sqrt(gap2_mean)
        key = f"diag_tau={tau:g}"
        rep.stats[key] = diag
        rep.stderr[key] = gap2_se
        if k == 0:
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
        ok = fit.rate >= RATE_BUDGET * theoretical
        rep.verdicts.append(Verdict(key, "pass" if ok else "fail", "cauchy-decay",
                                    f"fitted {fit.rate:.4g} vs {RATE_BUDGET:.2f} x "
                                    f"{theoretical:.4g}"))
    return rep


def affine_uniqueness_experiment(sc: Scenario, x, y, T: float, dt: float, n_traj: int,
                                 seed: int, snapshot_spacing: float = 0.5,
                                 threads: int = 1) -> ConvergenceReport:
    """Same P1 part: common-noise contraction and a terminal assignment-W2
    floor. Distinct P1 parts: the limiting laws separate by exactly the
    projected shift along its direction; both ensembles read one noise draw."""
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
        nb = min(ASSIGNMENT_BUDGET, n_traj)
        w2 = w2_assignment(EmpiricalLaw(res.x_terminal[:nb]),
                           EmpiricalLaw(res.y_terminal[:nb]))
        rep.stats["terminal_w2"] = np.array([w2])
        ok = w2 < SAME_FLOOR
        rep.verdicts.append(Verdict("terminal-w2", "pass" if ok else "fail", "same-limit",
                                    f"assignment W2 = {w2:.4g} vs floor {SAME_FLOOR:g} "
                                    f"at N = {nb}"))
        return rep
    v = shift / shift_norm
    if space.kind == "euclidean":
        w = v if space.weight is None else v * space.weight
        obs = {"p1coord": lambda X: X @ w}
    else:
        obs = {"p1coord": lambda X: space.inner_rows(X, np.broadcast_to(v, X.shape))}
    ens_x, ens_y = simulate_ensembles(sc, [x, y], dt, n_steps, n_traj, seed, times,
                                      observables=obs, threads=threads)
    sep = np.array([w2_1d(ens_x.observables["p1coord"][i], ens_y.observables["p1coord"][i])
                    for i in range(len(times))])
    rep.stats["p1_w2"] = sep
    err = abs(sep[-1] - shift_norm)
    ok = err <= SHIFT_TOL
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
    _require_fit_points(times, T, snapshot_spacing)
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
