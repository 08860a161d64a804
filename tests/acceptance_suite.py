"""Acceptance-suite runner.

Executes every numbered criterion at its pinned parameters and tolerances,
writes one CSV per criterion into the output directory, and returns the raw
numbers plus pass/fail booleans. Timing goes to ``timing.txt`` (not a CSV) so
the CSV outputs stay byte-identical across reruns and thread counts.
"""

import itertools
import json
import math
import os
import time

import numpy as np

from spdelab import cli, engine as eng, hilbert as hb, hjmm, lab
from spdelab import oulevy as ou
from spdelab.cli import write_csv
from spdelab.gdc import make_certificate, quadratic_form_audit
from spdelab.noise import diagonal_qwiener
from spdelab.wasserstein import (EmpiricalLaw, ks_critical_value, ks_statistic,
                                 w2_1d, w2_1d_to_gaussian, w2_assignment)

MASTER_SEED = 20_260_809
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCEN = os.path.join(ROOT, "scenarios")

A_BLOCK = np.array([[-1.0, 1.0], [0.0, 1.0]])


def block_scenario():
    p1 = hb.coordinate_projection(2, [1])
    op = hb.matrix_operator(hb.euclidean_space(2), A_BLOCK)
    cert = make_certificate(A_BLOCK, p1, lambda1=1.5, L_F=0.01)
    return eng.Scenario(op=op, P1=p1, qwiener=diagonal_qwiener([1.0, 1.0]),
                        sigma=eng.ConstantSigma(0.3 * np.eye(2)),
                        drift=lambda X: 0.1 * np.sin(X), certificate=cert,
                        scenario_id="block2x2")


def decoupled_scenario():
    a = np.diag([-1.0, 0.0])
    p1 = hb.coordinate_projection(2, [1])
    op = hb.matrix_operator(hb.euclidean_space(2), a)
    cert = make_certificate(a, p1, lambda1=0.0)
    return eng.Scenario(op=op, P1=p1, qwiener=diagonal_qwiener([1.0]),
                        sigma=eng.ConstantSigma(np.array([[1.0], [0.0]])),
                        certificate=cert,
                        scenario_id="ou2d-decoupled")


def c01_certification(out, seed, threads):
    p1 = hb.coordinate_projection(2, [1])
    cert = make_certificate(A_BLOCK, p1, lambda1=1.5, tol=1e-10)
    ok = abs(cert.lambda0 - 0.5) <= 1e-9
    write_csv(os.path.join(out, "c01_certificate.csv"),
              ["lambda0", "lambda1", "alpha", "beta", "epsilon"],
              [(cert.lambda0, cert.lambda1, cert.alpha, cert.beta_const, cert.epsilon)])
    return {"lambda0": cert.lambda0, "ok": ok, "cert": cert}


def c02_quadratic_audit(out, seed, threads):
    p1 = hb.coordinate_projection(2, [1])
    cert = make_certificate(A_BLOCK, p1, lambda1=1.5, tol=1e-10)
    worst_block = quadratic_form_audit(A_BLOCK, p1, cert.lambda0, cert.lambda1)
    a2 = np.diag([-1.0, 0.0])
    p2 = hb.coordinate_projection(2, [1])
    cert2 = make_certificate(a2, p2, lambda1=0.0)
    worst_diag = quadratic_form_audit(a2, p2, cert2.lambda0, cert2.lambda1)
    write_csv(os.path.join(out, "c02_quadratic_audit.csv"),
              ["certificate", "worst_violation"],
              [("block2x2", worst_block), ("ou2d", worst_diag)])
    return {"worst": max(worst_block, worst_diag),
            "ok": max(worst_block, worst_diag) <= 1e-8}


def c03_ou_desk(out, seed, threads):
    op = hb.matrix_operator(hb.euclidean_space(1), [[-1.0]])
    p0 = hb.Projection(np.zeros((1, 1)))
    cert = make_certificate([[-1.0]], p0, lambda1=0.0)
    sc = eng.Scenario(op=op, P1=p0, qwiener=diagonal_qwiener([1.0]),
                      sigma=eng.ConstantSigma(np.array([[1.0]])), certificate=cert,
                      scenario_id="ou1d")
    dt, T, n = 1e-3, 10.0, 100_000
    ens = eng.simulate_ensemble(sc, np.array([1.0]), dt, int(round(T / dt)), n,
                                seed, [T], threads=threads)
    xt = ens.states[-1][:, 0]
    mean, var = float(xt.mean()), float(xt.var(ddof=1))
    se = float(xt.std(ddof=1) / math.sqrt(n))
    w2 = w2_1d_to_gaussian(xt, 0.0, math.sqrt(0.5))
    ok_mean = abs(mean - math.exp(-T)) <= 3 * se
    ok_var = abs(var - 0.5) <= 0.025
    ok_w2 = w2 < 0.02
    write_csv(os.path.join(out, "c03_ou_desk.csv"),
              ["statistic", "value", "target", "tolerance"],
              [("terminal_mean", mean, math.exp(-T), 3 * se),
               ("terminal_var", var, 0.5, 0.025),
               ("w2_to_limit", w2, 0.0, 0.02)])
    return {"mean": mean, "var": var, "w2": w2, "se": se,
            "ok": ok_mean and ok_var and ok_w2,
            "ok_mean": ok_mean, "ok_var": ok_var, "ok_w2": ok_w2}


OU_PROBES = ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -0.7], [2.0, 0.3])


def c04_limiting_cf(out, seed, threads):
    ousc = ou.make_ou_scenario(decoupled_scenario())
    x = np.array([5.0, 7.0])
    esc = ousc.scenario
    dt, T, n = 5e-3, 30.0, 20_000
    ens = eng.simulate_ensemble(esc, x, dt, int(round(T / dt)), n, seed, [T],
                                threads=threads)
    rows, quad_errs, emp_errs = [], [], []
    for u in OU_PROBES:
        u = np.array(u)
        cf = ou.limiting_cf(ousc, x, u, t_cut=40.0, quad_step=0.005)
        closed = np.exp(1j * 7.0 * u[1]) * np.exp(-u[0] ** 2 / 4.0)
        emp, se = ou.empirical_cf(ens.states[-1], u)
        quad_errs.append(abs(cf.value - closed))
        emp_errs.append((abs(cf.value - emp), 3.0 * se + cf.tail_bound))
        rows.append((json.dumps(list(map(float, u))), cf.value.real, cf.value.imag,
                     abs(cf.value - closed), abs(cf.value - emp),
                     3.0 * se + cf.tail_bound))
    write_csv(os.path.join(out, "c04_limiting_cf.csv"),
              ["u", "re_quadrature", "im_quadrature", "closed_form_err",
               "empirical_err", "empirical_budget"], rows)
    ok_quad = max(quad_errs) <= 1e-6
    ok_emp = all(err <= budget for err, budget in emp_errs)
    return {"quad_errs": quad_errs, "emp_errs": emp_errs,
            "ok": ok_quad and ok_emp, "ok_quad": ok_quad, "ok_emp": ok_emp}


def c05_multiple_limits(out, seed, threads):
    sc = decoupled_scenario()
    dt, T = 2e-3, 12.0
    n_steps = int(round(T / dt))
    x, y = np.array([5.0, 7.0]), np.array([5.0, 3.0])
    n = 10_000
    ex, ey = eng.simulate_ensembles(sc, [x, y], dt, n_steps, n, seed, [T], threads=threads)
    sep = w2_1d(ex.states[-1][:, 1], ey.states[-1][:, 1])
    ok_distinct = abs(sep - 4.0) <= 0.02
    y2 = np.array([-2.0, 7.0])
    res = eng.simulate_pair_ensemble(sc, x, y2, dt, n_steps, 512, seed, [T],
                                     keep_terminal=True, threads=threads)
    w2_same = w2_assignment(EmpiricalLaw(res.x_terminal), EmpiricalLaw(res.y_terminal))
    ok_same = w2_same < 0.05
    write_csv(os.path.join(out, "c05_multiple_limits.csv"),
              ["check", "value", "target", "tolerance"],
              [("p_coordinate_separation", sep, 4.0, 0.02),
               ("same_projection_terminal_w2", w2_same, 0.0, 0.05)])
    return {"sep": sep, "w2_same": w2_same, "ok": ok_distinct and ok_same,
            "ok_distinct": ok_distinct, "ok_same": ok_same}


def c06_stability(out, seed, threads):
    sc = block_scenario()
    rep = eng.stability_check(sc, [2.0, 1.0], [-1.0, 1.0], 1e-3, 3000, 10_000,
                              seed, snapshot_times=np.arange(0.25, 3.001, 0.25),
                              threads=threads)
    rows = [(t, l, r, v, s) for t, l, r, v, s in
            zip(rep.times, rep.lhs_mean, rep.rhs, rep.violations, rep.slack)]
    write_csv(os.path.join(out, "c06_stability.csv"),
              ["time", "lhs_mean", "rhs_bound", "violation", "slack"], rows)
    return {"ok": rep.ok, "worst": float(np.max(rep.violations - rep.slack))}


def c07_coupling_ks(out, seed, threads):
    sc = decoupled_scenario()
    dt, T, n = 1e-3, 2.0, 10_000
    n_steps = int(round(T / dt))
    x = np.array([5.0, 7.0])
    indep = eng.simulate_ensemble(sc, x, dt, n_steps, n, seed + 1, [T],
                                  threads=threads)
    crit = ks_critical_value(n, n, alpha=0.01)
    rows, oks = [], []
    for tau in (0.5, 1.0, 2.0):
        res = eng.simulate_coupled_ensemble(sc, x, int(round(tau / dt)), dt, n_steps,
                                            n, seed, [T], keep_terminal=True,
                                            threads=threads)
        d = ks_statistic(res.y_terminal[:, 0], indep.states[-1][:, 0])
        same_coord2 = bool(np.array_equal(res.y_terminal[:, 1],
                                          indep.states[-1][:, 1]))
        oks.append(d < crit and same_coord2)
        rows.append((tau, d, crit, same_coord2))
    write_csv(os.path.join(out, "c07_coupling_ks.csv"),
              ["tau", "ks_statistic", "critical_value_1pct", "p_coordinate_equal"],
              rows)
    return {"rows": rows, "ok": all(oks)}


def c08_counterexamples(out, seed, threads):
    a = np.diag([-1.0, 0.0])
    p1 = hb.coordinate_projection(2, [1])
    sc_a = eng.Scenario(op=hb.matrix_operator(hb.euclidean_space(2), a), P1=p1,
                        qwiener=diagonal_qwiener([1.0, 1.0]),
                        sigma=eng.ConstantSigma(np.eye(2)), scenario_id="ce-a")
    rep_a = lab.counterexample_experiment(sc_a, np.array([1.0, 1.0]), T=10.0,
                                          dt=0.01, n_traj=4000, seed=seed,
                                          threads=threads)
    slope = rep_a.fitted["variance_linear"].rate
    ok_a = rep_a.diverged and abs(slope - 1.0) <= 0.10
    sc_b = eng.Scenario(op=hb.matrix_operator(hb.euclidean_space(2), A_BLOCK), P1=p1,
                        qwiener=diagonal_qwiener([1.0]),
                        sigma=eng.ConstantSigma(np.array([[1.0], [0.0]])),
                        scenario_id="ce-b")
    rep_b = lab.counterexample_experiment(sc_b, np.array([1.0, 1.0]), T=8.0,
                                          dt=1e-3, n_traj=100, seed=seed,
                                          threads=threads)
    ok_b = rep_b.diverged and \
        rep_b.verdicts[0].invariant == "second-moment-exponential-growth"
    exit_code = cli.run(["lab", os.path.join(SCEN, "counterexample-antidissipative.json"),
                         "--out", os.path.join(out, "c08_cli"), "--traj", "64"])
    write_csv(os.path.join(out, "c08_counterexamples.csv"),
              ["case", "verdict", "invariant", "fitted"],
              [("kernel-noise", rep_a.verdicts[0].status, rep_a.verdicts[0].invariant,
                slope),
               ("antidissipative", rep_b.verdicts[0].status, rep_b.verdicts[0].invariant,
                -rep_b.fitted["m2_exponential"].rate)])
    return {"slope": slope, "ok": ok_a and ok_b and exit_code == 3,
            "exit_code": exit_code, "ok_a": ok_a, "ok_b": ok_b}


def c09_lf_formula(out, seed, threads):
    v1 = hjmm.lf_bound(1.0, 0.0, 1.0 / 3.0, 3.0, 1000.0)
    v2 = hjmm.lf_bound(1.0, 0.0, 1.0 / 3.0, 3.0, 1000.0)
    # independent evaluation of the same closed form, spelled out term by term
    pre = 1.0 * math.sqrt(1.0 / 3.0) / 3.0
    direct = pre * (math.sqrt(6.0 * (1.0 / 3.0) * math.sqrt(2.0))
                    + math.sqrt(8.0 / 27.0 + 16.0 / 3.0)
                    + math.sqrt((16.0 * (1.0 + 1.0 / math.sqrt(3.0)) ** 2 + 48.0)
                                / (1000.0 - 3.0)))
    ok = v1 < 1.0 and v1 == v2 and abs(v1 - direct) <= 1e-12
    write_csv(os.path.join(out, "c09_lf_formula.csv"),
              ["l_f", "direct_evaluation", "stable"],
              [(v1, direct, v1 == v2)])
    return {"l_f": v1, "ok": ok}


def c10_hjmm(out, seed, threads):
    sp = hjmm.forward_space(3.0, n=2048)
    vol = hjmm.hjmm_example_volatility(sp, beta_prime=1000.0)
    h0 = 0.05 + 0.04 * np.exp(-2.0 * sp.grid)
    rep = hjmm.hjmm_ergodicity_experiment(sp, vol, h0, horizon=6.0, n_traj=2000,
                                          seed=seed, threads=threads)
    rows = [(t, m, s, b) for t, m, s, b in
            zip(rep.times, rep.decay_mean, rep.decay_se, rep.bound)]
    write_csv(os.path.join(out, "c10_hjmm_decay.csv"),
              ["time", "mean_sq_dist", "std_err", "bound"], rows)
    write_csv(os.path.join(out, "c10_hjmm_summary.csv"),
              ["l_f", "margin", "fitted_rate", "budget_rate", "long_rate_max_dev"],
              [(rep.l_f, rep.margin, rep.fitted_rate, 0.85 * rep.margin,
                rep.long_rate_max_dev)])
    ok = (rep.fitted_rate >= 0.85 * rep.margin and rep.long_rate_max_dev == 0.0
          and all(s == "pass" for _, s, _ in rep.verdicts))
    return {"rep": rep, "ok": ok}


def c11_wasserstein(out, seed, threads):
    gen = np.random.Generator(np.random.Philox(seed))
    brute_ok = True
    for _ in range(100):
        n = int(gen.integers(2, 8))
        a = gen.standard_normal((n, 2))
        b = gen.standard_normal((n, 2))
        got = w2_assignment(a, b)
        best = min(np.mean(np.sum((a - b[list(p)]) ** 2, axis=1))
                   for p in itertools.permutations(range(n)))
        if abs(got - math.sqrt(best)) > 1e-10:
            brute_ok = False
            break
    xs = gen.normal(0.0, 1.0, 10_000)
    ys = gen.normal(2.0, 2.0, 10_000)
    gauss_err = abs(w2_1d(xs, ys) - math.sqrt(4.0 + 1.0))
    sym_ok, tri_ok, zero_ok = True, True, True
    for _ in range(100):
        a, b, c = (gen.standard_normal((8, 2)) for _ in range(3))
        dab, dba = w2_assignment(a, b), w2_assignment(b, a)
        sym_ok &= abs(dab - dba) <= 1e-12
        tri_ok &= dab <= w2_assignment(a, c) + w2_assignment(c, b) + 1e-9
    zero_ok = w2_assignment(a, a[gen.permutation(8)]) == 0.0
    ok = brute_ok and gauss_err <= 0.05 and sym_ok and tri_ok and zero_ok
    write_csv(os.path.join(out, "c11_wasserstein.csv"),
              ["check", "ok", "value"],
              [("assignment_vs_bruteforce", brute_ok, ""),
               ("sort_vs_gaussian_closed_form", gauss_err <= 0.05, gauss_err),
               ("symmetry", sym_ok, ""), ("triangle", tri_ok, ""),
               ("zero_iff_equal", zero_ok, "")])
    return {"ok": ok, "gauss_err": gauss_err}


CRITERIA = [
    ("01", "GDC certification reproduces the 2x2 block constants", c01_certification, 1.0),
    ("02", "quadratic-form audit within 1e-8 on 1000 vectors", c02_quadratic_audit, 1.0),
    ("03", "1-D OU desk experiment (mean/variance/W2)", c03_ou_desk, 60.0),
    ("04", "OU limiting characteristic function", c04_limiting_cf, 120.0),
    ("05", "multiple invariant measures split by the P1 shift", c05_multiple_limits, 180.0),
    ("06", "pairwise second-moment stability bound", c06_stability, 120.0),
    ("07", "shifted-noise coupling preserves the marginal law", c07_coupling_ks, 120.0),
    ("08", "counterexample detection with exit code 3", c08_counterexamples, 60.0),
    ("09", "drift Lipschitz-constant formula", c09_lf_formula, 1.0),
    ("10", "forward-curve decay to the long rate", c10_hjmm, 300.0),
    ("11", "Wasserstein module self-tests", c11_wasserstein, 60.0),
]


def run_suite(out_dir, master_seed=MASTER_SEED, threads=1):
    os.makedirs(out_dir, exist_ok=True)
    results = {}
    timing_lines = []
    for num, desc, fn, budget in CRITERIA:
        t0 = time.time()
        payload = fn(out_dir, master_seed, threads)
        payload["runtime"] = time.time() - t0
        payload["budget"] = budget
        payload["description"] = desc
        results[num] = payload
        status = "pass" if payload["ok"] else "FAIL"
        line = (f"criterion {num} [{status}] {desc} "
                f"({payload['runtime']:.1f}s / budget {budget:.0f}s)")
        timing_lines.append(line)
        print(line, flush=True)
    write_csv(os.path.join(out_dir, "acceptance_summary.csv"),
              ["criterion", "description", "status"],
              [(num, desc, "pass" if results[num]["ok"] else "fail")
               for num, desc, _, _ in CRITERIA])
    with open(os.path.join(out_dir, "timing.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(timing_lines) + "\n")
    return results


def suite_csvs(out_dir):
    found = []
    for base, _, names in os.walk(out_dir):
        for name in sorted(names):
            if name.endswith(".csv"):
                found.append(os.path.relpath(os.path.join(base, name), out_dir))
    return sorted(found)
