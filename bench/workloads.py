"""The benchmark's workloads: scenario generation and output gates.

Each workload turns ``(seed)`` into one scenario document for the
``nltransport`` command line, names the subcommand that runs it, and checks
the ``report.json`` that the run writes.  The reasons for each workload and
its size are in README.md beside this file.
"""

from __future__ import annotations

import random

LOG_MODEL = {
    "p": 2.0,
    "source": {"kind": "kernel_inf", "kernel": "log", "h_inf": 1.0},
    "functional": {"q": 1.0, "eps0": 1.0, "a": "inverse_square",
                   "b": "h_at_eps0"},
}


def transport_scenario(seed: int) -> dict:
    """simulate-dde with the PDE cross-check: both routes, 2 x 600 steps."""
    rng = random.Random(seed)
    return {
        "experiment": "simulate-dde",
        "seed": seed,
        "model": LOG_MODEL,
        "initial": {"family": "wrong_equilibrium",
                    "p_prime": rng.uniform(2.5, 3.5)},
        "run": {"T": 6.0, "dt": 0.01, "stride": 20},
        "options": {"cross_check_pde": True, "equivalence_tol": 1e-6},
    }


def linear_scenario(seed: int) -> dict:
    """linear-stability followed by volterra-demo, one worker thread."""
    rng = random.Random(seed)
    return {
        "experiment": "suite",
        "seed": seed,
        "options": {"workers": 1},
        "scenarios": [
            {"experiment": "linear-stability",
             "model": LOG_MODEL,
             "run": {"T": 20.0, "dt": 0.02},
             "options": {"kernel_grid": 400, "contour_omega": 50.0,
                         "amplitude": 10.0 ** rng.uniform(-3.5, -2.5)}},
            {"experiment": "volterra-demo",
             "model": LOG_MODEL,
             "options": {"dde_T": 16.0, "dde_dt": 0.02}},
        ],
    }


def control_scenario(seed: int) -> dict:
    """control-verify on the log source; the seed drives the sampled controls."""
    return {
        "experiment": "control-verify",
        "seed": seed,
        "model": LOG_MODEL,
        "options": {"y": 1.0, "T": 3.0, "t": 0.0, "n_samples": 4,
                    "n_histories": 200, "margin_tol": 1e-6},
    }


def _gate(ok: bool, reasons: list, message: str) -> None:
    if not ok:
        reasons.append(message)


def check_transport(report: dict, scenario: dict) -> list:
    entry = report.get("simulate-dde", {})
    tol = scenario["options"]["equivalence_tol"]
    reasons = []
    _gate(entry.get("pass") is True, reasons, "pass is not true")
    rel = entry.get("pde_dde_rel_diff")
    _gate(isinstance(rel, float) and rel < tol, reasons,
          f"pde_dde_rel_diff {rel!r} misses equivalence_tol {tol}")
    return reasons


def check_linear(report: dict, scenario: dict) -> list:
    entry = report.get("suite", {})
    reasons = []
    _gate(entry.get("pass") is True, reasons, "pass is not true")
    subs = entry.get("scenarios", {})
    lin = subs.get("0:linear-stability", {})
    h3 = lin.get("h3", {})
    _gate(h3.get("status") == "conclusive", reasons,
          f"h3.status is {h3.get('status')!r}, not conclusive")
    _gate(h3.get("winding_number") == 0, reasons,
          f"winding_number is {h3.get('winding_number')!r}, not 0")
    for name in ("0:linear-stability", "1:volterra-demo"):
        _gate(subs.get(name, {}).get("pass") is True, reasons,
              f"{name} pass is not true")
    return reasons


def check_control(report: dict, scenario: dict) -> list:
    entry = report.get("control-verify", {})
    tol = scenario["options"]["margin_tol"]
    reasons = []
    _gate(entry.get("pass") is True, reasons, "pass is not true")
    certs = entry.get("certificates", {})
    _gate(sorted(certs) == ["max01", "max01w", "min1inf", "min1infw"], reasons,
          f"certificates cover {sorted(certs)}, not the four variants")
    for variant, cert in certs.items():
        margin = cert.get("worst_margin")
        _gate(isinstance(margin, float) and margin <= tol, reasons,
              f"{variant} worst_margin {margin!r} exceeds margin_tol {tol}")
    for side in ("history_below", "history_above"):
        _gate(entry.get(side, {}).get("passes") is True, reasons,
              f"{side} certificate does not pass")
    return reasons


# name -> (CLI subcommand, scenario generator, report check)
WORKLOADS = {
    "transport": ("simulate-dde", transport_scenario, check_transport),
    "linear": ("suite", linear_scenario, check_linear),
    "control": ("control-verify", control_scenario, check_control),
}
