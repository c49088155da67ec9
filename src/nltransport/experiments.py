"""Experiment implementations, report assembly and deterministic output.

Every experiment returns a JSON-serializable report with a ``pass`` flag;
``run_scenario`` maps reports to the exit-code contract (0 pass, 1 schema
violation, 2 assertion failure, 3 numeric error, which includes arithmetic
errors and ValueErrors raised while running).  CSV and JSON files are written
atomically; JSON is strict, with non-finite numbers written as null; numbers
use the shortest round-trip decimal so identical configurations produce
byte-identical outputs (the wall-time field is the single documented
exception).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, control, dde, pde
from .config import ConfigError, Scenario, load
from .errors import DomainError, ModelViolationError, NumericalError
from .linstab import Linearization
from .ratefit import fit_rate
from .trajectory import CSV_COLUMNS
from .volterra import (LinearDDEProblem, VolterraProblem, gripenberg_check,
                       linear_dde_solve, reconstruct, resolvent, solve, uniform_grid)

EXIT_PASS = 0
EXIT_SCHEMA = 1
EXIT_ASSERTION = 2
EXIT_NUMERIC = 3

# the time at which control-verify certifies the flat history extremal
HISTORY_T = 5.0


def config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def atomic_write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite_or_null(obj):
    """Copy of a report with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(val) for val in obj]
    return obj


def write_json(path: str, obj) -> None:
    """Strict JSON: NaN and infinities are written as null."""
    text = json.dumps(_finite_or_null(obj), indent=2, sort_keys=True,
                      allow_nan=False)
    atomic_write(path, text + "\n")


def write_csv(path: str, header, columns) -> None:
    import io
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in zip(*columns):
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    atomic_write(path, buf.getvalue())


# -- individual experiments -----------------------------------------------------


def run_equilibrium(scn: Scenario) -> dict:
    model = scn.build_model()
    gap = model.equilibrium_identity_gap()
    tol = scn.options["tolerance"]
    res = model.rho(model.equilibrium_profile())
    grid = np.geomspace(1e-2, 1e4, 200)
    resid = float(np.max(np.abs(model.equilibrium_residual(grid))))
    write_csv(os.path.join(scn.output_dir, "equilibrium_profile.csv"),
              ("y", "xi_p", "dxi_p"), (grid, *model.equilibrium_pair(grid)))
    return {
        "rho_at_equilibrium": res.rho,
        "target": 1.0 / model.p,
        "identity_gap": gap,
        "stationarity_residual_max": resid,
        "tolerance": tol,
        "pass": bool(gap <= tol),
    }


def _trajectory_report(traj) -> dict:
    """Report fields of a run: the scalar checks read every committed step,
    the profile-norm fields the strided samples."""
    report = {
        "I_min": traj.monitors["I_min"],
        "I_max": traj.monitors["I_max"],
        "I_zero_profile_bound": traj.monitors["I_zero_profile"],
        "sup_inf_ratio_max": traj.monitors["sup_inf_ratio_max"],
        "final_dist1inf": float(traj.dist1inf[-1]),
        "denom_min": traj.monitors["denom_min"],
        "fixed_point_evals_mean": traj.monitors["fixed_point_evals_mean"],
        "fixed_point_evals_max": traj.monitors["fixed_point_evals_max"],
        "fixed_point_residual_max": traj.monitors["fixed_point_residual_max"],
    }
    try:
        fit = fit_rate(traj.t, np.maximum(traj.dist1inf, 1e-300))
        report["dist_rate"] = fit.rate
        report["dist_rate_r2"] = fit.r_squared
    except DomainError as exc:
        report["dist_rate_error"] = str(exc)
    if traj.monitors["state"].n >= 3:
        report["consistency_residual"] = pde.consistency_residual(traj)
    return report


def run_simulate_pde(scn: Scenario) -> dict:
    model = scn.build_model()
    xi0 = scn.build_initial(model)
    traj = pde.run(model, xi0, **scn.run_cfg)
    write_csv(os.path.join(scn.output_dir, "trajectory_pde.csv"), CSV_COLUMNS,
              [getattr(traj, name) for name in CSV_COLUMNS])
    report = _trajectory_report(traj)
    report["cumulative_rho_bound_slack"] = pde.cumulative_rho_bound_gap(traj)
    report["pass"] = bool(report["cumulative_rho_bound_slack"] >= -1e-6
                          and report["denom_min"] > 0.0)
    return report


def run_simulate_dde(scn: Scenario) -> dict:
    model = scn.build_model()
    xi0 = scn.build_initial(model)
    traj, fg = dde.run(model, xi0, **scn.run_cfg)
    write_csv(os.path.join(scn.output_dir, "trajectory_dde.csv"), CSV_COLUMNS,
              [getattr(traj, name) for name in CSV_COLUMNS])
    write_csv(os.path.join(scn.output_dir, "dde_series.csv"),
              ("t", "I", "dlogIdt", "f", "g"),
              (fg["t"], fg["I"], fg["dlogIdt"], fg["f"], fg["g"]))
    report = _trajectory_report(traj)
    report["dlogI_l1"] = traj.monitors["dlogI_l1"]
    state = traj.monitors["state"]
    tail = state.I[state.t >= 0.9 * state.t[-1]]
    report["I_tail_oscillation"] = float(np.max(tail) - np.min(tail))
    checks = [report["denom_min"] > 0.0]
    if scn.options["cross_check_pde"]:
        # only I is compared, so the reference skips the profile norms
        ref = pde.run(model, xi0, **scn.run_cfg, norms=False)
        rel = float(np.max(np.abs(ref.monitors["state"].I / state.I - 1.0)))
        report["pde_dde_rel_diff"] = rel
        checks.append(rel < scn.options["equivalence_tol"])
    report["pass"] = bool(all(checks))
    return report


def run_linear_stability(scn: Scenario) -> dict:
    model = scn.build_model()
    lin = Linearization(model)
    cert = lin.monotonicity_certificate(n=scn.options["kernel_grid"])
    write_csv(os.path.join(scn.output_dir, "kernel.csv"),
              ("t", "K", "expK_monotone_margin"),
              (cert["t"], cert["K"],
               np.concatenate([-np.diff(cert["weighted"]), [np.nan]])))
    h3 = lin.condition_H3(omega=scn.options["contour_omega"])
    amp = scn.options["amplitude"]
    xp = model.equilibrium_profile()
    evo = lin.linear_evolve(xp.scaled(amp), T=scn.run_cfg["T"],
                            dt=scn.run_cfg["dt"])
    fit = evo["rate_fit"]
    report = {
        "kernel_min": cert["K_min"],
        "kernel_monotone_margin": cert["monotone_margin"],
        "h3": h3,
        "decay_rate": fit.rate,
        "decay_rate_r2": fit.r_squared,
        "pass": bool(cert["K_min"] > 0.0
                     and cert["monotone_margin"] >= -1e-10
                     and h3["status"] == "conclusive"
                     and h3.get("winding_number", -1) == 0
                     and fit.rate >= 1.0 / (1.3 * model.p)),
    }
    return report


def run_volterra_demo(scn: Scenario) -> dict:
    opts = scn.options
    t = uniform_grid(opts["T"], opts["dt"])
    prob = VolterraProblem(kernel=np.exp(-t), forcing=np.ones_like(t), dt=opts["dt"])
    t, u = solve(prob)
    err_u = float(np.max(np.abs(u - 0.5 * (1.0 + np.exp(-2.0 * t)))))
    _, r = resolvent(prob)
    err_r = float(np.max(np.abs(r - np.exp(-2.0 * t))))
    recon = float(np.max(np.abs(reconstruct(prob) - u)))
    write_csv(os.path.join(scn.output_dir, "volterra_u.csv"), ("t", "u"), (t, u))

    tg = uniform_grid(opts["gripenberg_T"], opts["gripenberg_dt"])
    gp = VolterraProblem(kernel=lambda i, j: 0.5 * np.exp(-(tg[i] - tg[j])),
                         forcing=np.ones_like(tg), dt=opts["gripenberg_dt"])
    grip = gripenberg_check(gp)

    td = uniform_grid(opts["dde_T"], opts["dde_dt"])
    ddemo = LinearDDEProblem(a=np.zeros_like(td), k=lambda i, j: np.exp(-(td[i] - td[j])),
                             f=np.zeros_like(td), I0=1.0, dt=opts["dde_dt"])
    sol = linear_dde_solve(ddemo)
    write_csv(os.path.join(scn.output_dir, "linear_dde_I.csv"), ("t", "I"),
              (sol["t"], sol["I"]))
    report = {
        "closed_form_solution_err": err_u,
        "closed_form_resolvent_err": err_r,
        "reconstruction_residual": recon,
        "gripenberg": grip,
        "dde_tail_oscillation": sol["tail_oscillation"],
        "dde_cross_check_residual": sol["cross_check_residual"],
        "pass": bool(err_u < 1e-5 and err_r < 1e-5 and recon < 1e-8
                     and grip["resolvent_l1_late_relvar"] < 0.01
                     and sol["tail_oscillation"] < 1e-4),
    }
    return report


def run_control_verify(scn: Scenario) -> dict:
    model = scn.build_model()
    src = model.source
    p = model.p
    opts = scn.options
    y, T, t = opts["y"], opts["T"], opts["t"]
    certs = {}
    ok = True
    for variant in control.VARIANTS:
        if variant in ("max01", "min1inf"):
            g = control.PayoffG.from_source_unweighted(src, p, y)
        else:
            g = control.PayoffG.from_source_weighted(src, p)
        prob = control.ControlProblem(variant, g, p, y, T, t)
        prob.hypothesis_report()
        cert = control.verification_certificate(prob, n_samples=opts["n_samples"],
                                                seed=scn.seed)
        kernel = getattr(src.kernel, "name", "") if src.kernel else ""
        cert["model"] = f"{src.kind}({kernel})" if kernel else src.kind
        certs[variant] = cert
        ok = ok and cert["worst_margin"] <= opts["margin_tol"]
        lo, hi = prob.reachable_bounds()
        xs = np.linspace(lo, hi if np.isfinite(hi) else 4 * lo, 41)[1:-1]
        vals = [control.value(prob, float(x))[0] for x in xs]
        write_csv(os.path.join(scn.output_dir, f"value_{variant}.csv"),
                  ("x", "t", "value"), (xs, np.full_like(xs, t), vals))
    below = control.extremal_history_certificate(
        src, p, HISTORY_T, y, n_samples=opts["n_histories"], seed=scn.seed,
        side="below")
    above = control.extremal_history_certificate(
        src, p, HISTORY_T, y, n_samples=opts["n_histories"], seed=scn.seed + 1,
        side="above")
    ok = ok and below["passes"] and above["passes"]
    report = {"certificates": certs, "history_below": below,
              "history_above": above, "pass": bool(ok)}
    return report


RUNNERS = {
    "equilibrium": run_equilibrium,
    "simulate-pde": run_simulate_pde,
    "simulate-dde": run_simulate_dde,
    "linear-stability": run_linear_stability,
    "volterra-demo": run_volterra_demo,
    "control-verify": run_control_verify,
}


def execute(scn: Scenario) -> dict:
    """Run one scenario and assemble its report entry."""
    start = time.monotonic()
    entry = {
        "experiment": scn.experiment,
        "seed": scn.seed,
        "config_hash": config_hash(scn.raw),
        "tool_version": __version__,
    }
    if scn.experiment == "suite":
        workers = min(scn.options["workers"], max(len(scn.sub_scenarios), 1))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(execute, scn.sub_scenarios))
        entry["scenarios"] = {f"{i}:{r['experiment']}": r
                              for i, r in enumerate(results)}
        entry["pass"] = bool(all(r.get("pass", False) for r in results))
    else:
        entry.update(RUNNERS[scn.experiment](scn))
    entry["wall_time_s"] = round(time.monotonic() - start, 3)
    return entry


def run_scenario(config_path: str, overrides: dict | None = None) -> int:
    """Load (with the command-line ``overrides``, see ``config.load``), run and
    write the report; returns the process exit code."""
    try:
        scn = load(config_path, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return EXIT_SCHEMA
    try:
        entry = execute(scn)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return EXIT_SCHEMA
    except (NumericalError, ModelViolationError, ArithmeticError, ValueError) as exc:
        # DomainError is a ValueError; ArithmeticError covers
        # ZeroDivisionError, FloatingPointError and OverflowError
        print(f"numeric error: {type(exc).__name__}: {' '.join(str(exc).split())}")
        return EXIT_NUMERIC
    report_path = os.path.join(scn.output_dir, "report.json")
    write_json(report_path, {scn.experiment: entry})
    print(f"report written to {report_path}")
    if not entry.get("pass", False):
        print("one or more checks FAILED")
        return EXIT_ASSERTION
    print("all checks passed")
    return EXIT_PASS
