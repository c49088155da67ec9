import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nltransport.cli import main as cli_main
from nltransport.config import ConfigError, load, validate
from nltransport import control, experiments
from nltransport.experiments import (EXIT_ASSERTION, EXIT_NUMERIC, EXIT_PASS,
                                     EXIT_SCHEMA, config_hash, run_scenario)
from nltransport.ratefit import fit_rate
from nltransport.errors import DomainError


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(out_dir, experiment="equilibrium", **extra):
    doc = {
        "experiment": experiment,
        "seed": 0,
        "model": {"p": 2.0,
                  "source": {"kind": "constant", "h_inf": 1.0},
                  "functional": {"q": 1.0, "eps0": 1.0}},
        "initial": {"family": "equilibrium"},
        "run": {"T": 2.0, "dt": 0.02, "stride": 5},
        "output": {"dir": out_dir},
    }
    doc.update(extra)
    return doc


# -- rate fitting -----------------------------------------------------------------


def test_fit_rate_exact_exponential():
    t = np.linspace(0.0, 20.0, 400)
    fit = fit_rate(t, np.exp(-t / 2.0))
    assert abs(fit.rate - 0.5) < 1e-6
    assert fit.r_squared > 1.0 - 1e-12


def test_fit_rate_algebraic_prefactor():
    t = np.linspace(0.0, 60.0, 1200)
    series = (1.0 + t) * np.exp(-t / 2.0)
    rates = [fit_rate(t, series, window=w).rate for w in (0.5, 0.25, 0.1)]
    assert abs(rates[-1] - 0.5) < 0.02
    assert abs(rates[-1] - 0.5) <= abs(rates[0] - 0.5)


def test_fit_rate_constant_series():
    t = np.linspace(0.0, 5.0, 50)
    fit = fit_rate(t, np.full(50, 2.5))
    assert abs(fit.rate) < 1e-9


def test_fit_rate_guards():
    t = np.linspace(0.0, 5.0, 50)
    with pytest.raises(DomainError):
        fit_rate(t, -np.ones(50))
    with pytest.raises(DomainError):
        fit_rate(t[:5], np.exp(-t[:5]))


# -- schema validation ---------------------------------------------------------------


def test_validate_rejects_unknown_experiment():
    with pytest.raises(ConfigError) as err:
        validate({"experiment": "frobnicate"})
    assert "experiment" in str(err.value)


def test_validate_reports_field_path():
    doc = {"experiment": "simulate-pde",
           "model": {"p": 2.0, "source": {"kind": "nope"}}}
    with pytest.raises(ConfigError) as err:
        validate(doc)
    assert "model.source.kind" in str(err.value)


def test_validate_negative_dt():
    doc = {"experiment": "simulate-pde",
           "model": {"p": 2.0, "source": {"kind": "constant"}},
           "run": {"dt": -0.1}}
    with pytest.raises(ConfigError) as err:
        validate(doc)
    assert "run.dt" in str(err.value)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": oops}')
    with pytest.raises(ConfigError) as err:
        load(str(path))
    assert "line 1" in str(err.value)


def test_config_hash_sensitivity():
    doc1 = base_config("out")
    doc2 = base_config("out")
    doc2["model"]["p"] = 2.5
    assert config_hash(doc1) != config_hash(doc2)
    assert config_hash(doc1) == config_hash(json.loads(json.dumps(doc1)))


# -- scenario construction -------------------------------------------------------------


def test_builds_log_model(tmp_path):
    doc = base_config(str(tmp_path))
    doc["model"]["source"] = {"kind": "kernel_inf", "kernel": "log", "h_inf": 1.0}
    scn = validate(doc)
    model = scn.build_model()
    assert abs(model.source.eval(1.0, 0) - (1.0 + np.log(2.0))) < 1e-12


def test_builds_initial_families(tmp_path):
    doc = base_config(str(tmp_path))
    doc["initial"] = {"family": "wrong_equilibrium", "p_prime": 3.0}
    scn = validate(doc)
    model = scn.build_model()
    prof = scn.build_initial(model)
    assert abs(prof(np.array([1.0]))[0] - 3.0) < 1e-9  # constant source: p' h_inf


# -- the exit-code contract -----------------------------------------------------------


def test_equilibrium_scenario_exit_zero(tmp_path):
    cfg = write_config(tmp_path, base_config(str(tmp_path / "out")))
    assert run_scenario(cfg) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    entry = report["equilibrium"]
    assert abs(entry["rho_at_equilibrium"] - 0.5) < 1e-10
    assert entry["pass"]


def test_schema_violation_exit_one(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "equilibrium", "model": {}})
    assert run_scenario(cfg) == EXIT_SCHEMA


@pytest.mark.parametrize("source, field", [
    ({"kind": "kernel_p", "kernel": "log", "h_inf": 1.0}, "model.source.kernel"),
    ({"kind": "tabulated", "h_inf": 1.0,
      "table": {"y": [0.1, 1.0, 10.0], "h": [3.0, 2.0, 1.0]}}, "model.source.kind"),
], ids=["kernel_p_log", "tabulated"])
def test_sources_without_an_equilibrium_exit_one(tmp_path, capsys, source, field):
    # kernel_p/log diverges and a table ends where J does not: neither can
    # give a right answer, so both are schema errors before any run
    doc = base_config(str(tmp_path / "out"))
    doc["model"]["source"] = source
    assert run_scenario(write_config(tmp_path, doc)) == EXIT_SCHEMA
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and field in out
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("section, key, value", [
    (("model",), "p", float("inf")),
    (("model", "functional"), "eps0", float("inf")),
    (("model", "functional"), "q", float("nan")),
    (("model", "source"), "h_inf", 10 ** 400),
    (("model", "functional"), "q", True),
    ((), "seed", True),
], ids=["p-infinity", "eps0-infinity", "q-nan", "h_inf-huge-int", "q-true", "seed-true"])
def test_non_finite_and_boolean_numbers_exit_one(tmp_path, capsys, section, key, value):
    # json reads Infinity, NaN and true as numbers; the schema does not
    doc = base_config(str(tmp_path / "out"))
    target = doc
    for name in section:
        target = target[name]
    target[key] = value
    assert run_scenario(write_config(tmp_path, doc)) == EXIT_SCHEMA
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and ".".join(("config",) + section + (key,)) in out
    assert not (tmp_path / "out" / "report.json").exists()


def test_compact_kernel_p_equilibrium_passes(tmp_path):
    doc = base_config(str(tmp_path / "out"))
    doc["model"]["source"] = {"kind": "kernel_p", "kernel": "compact",
                              "cutoff": 2.0, "h_inf": 1.0}
    assert run_scenario(write_config(tmp_path, doc)) == EXIT_PASS


def test_cli_and_delay_run_import_no_scipy(tmp_path):
    # the transport path needs no scipy: importing the CLI and a short
    # simulate-dde run leave no scipy module loaded
    doc = base_config(str(tmp_path / "out"), experiment="simulate-dde")
    doc["model"]["source"] = {"kind": "kernel_inf", "kernel": "log", "h_inf": 1.0}
    doc["initial"] = {"family": "wrong_equilibrium", "p_prime": 3.0}
    doc["run"] = {"T": 0.1, "dt": 0.02, "stride": 1}
    cfg = write_config(tmp_path, doc)
    script = (
        "import sys\n"
        "import nltransport.cli\n"
        "first = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "code = nltransport.cli.main(['simulate-dde', '--config', sys.argv[1]])\n"
        "after = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(code, first, after)\n")
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = [os.path.abspath(src_dir)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", script, cfg], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 [] []"


def _small_run_config(tmp_path, experiment):
    out = str(tmp_path / "out")
    if experiment == "control-verify":
        return {"experiment": experiment, "seed": 5,
                "model": {"p": 2.0, "source": {"kind": "kernel_inf", "kernel": "log",
                                               "h_inf": 1.0}},
                "output": {"dir": out},
                "options": {"n_samples": 4, "n_histories": 10, "T": 2.0}}
    if experiment == "linear-stability":
        doc = base_config(out, experiment=experiment)
        doc["run"] = {"T": 8.0, "dt": 0.02, "stride": 1}
        doc["options"] = {"kernel_grid": 100, "contour_omega": 10.0}
        return doc
    return {"experiment": experiment, "seed": 0,
            "model": {"p": 2.0, "source": {"kind": "constant", "h_inf": 1.0}},
            "output": {"dir": out},
            "options": {"T": 4.0, "dt": 0.001, "gripenberg_T": 60.0,
                        "gripenberg_dt": 0.1, "dde_T": 30.0, "dde_dt": 0.02}}


def _scipy_modules_after(tmp_path, script, *args):
    """The sorted scipy modules a fresh interpreter holds after the script."""
    script += ("\nimport json\nprint(json.dumps(sorted(m for m in sys.modules "
               "if m.split('.')[0] == 'scipy')))\n")
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = [os.path.abspath(src_dir)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("experiment", ["control-verify", "linear-stability",
                                        "volterra-demo"])
def test_experiment_import_budget(tmp_path, experiment):
    # control-verify and linear-stability load no scipy; volterra-demo loads
    # scipy.linalg for its triangular solve and nothing beyond what that
    # import brings along
    cfg = write_config(tmp_path, _small_run_config(tmp_path, experiment))
    script = ("import sys\n"
              "import nltransport.cli\n"
              "code = nltransport.cli.main([sys.argv[1], '--config', sys.argv[2]])\n"
              "assert code == 0, code")
    loaded = _scipy_modules_after(tmp_path, script, experiment, cfg)
    if experiment != "volterra-demo":
        assert loaded == []
        return
    linalg_alone = _scipy_modules_after(tmp_path, "import sys\nimport scipy.linalg")
    assert "scipy.linalg" in loaded
    assert set(loaded) <= set(linalg_alone)


def test_assertion_failure_exit_two(tmp_path):
    doc = base_config(str(tmp_path / "out"))
    doc["options"] = {"tolerance": -1.0}  # unsatisfiable tolerance
    cfg = write_config(tmp_path, doc)
    assert run_scenario(cfg) == EXIT_ASSERTION


@pytest.mark.parametrize("error,code", [
    (ZeroDivisionError("float division by zero"), EXIT_NUMERIC),
    (FloatingPointError("overflow encountered in exp"), EXIT_NUMERIC),
    (ValueError("f(a) and f(b) must have different signs"), EXIT_NUMERIC),
    (ConfigError("model.functional.a: unknown weight 'x'"), EXIT_SCHEMA),
], ids=["zero-division", "floating-point", "value", "config"])
def test_runner_errors_map_to_exit_codes(tmp_path, monkeypatch, capsys, error, code):
    def failing(scn):
        raise error

    monkeypatch.setitem(experiments.RUNNERS, "equilibrium", failing)
    cfg = write_config(tmp_path, base_config(str(tmp_path / "out")))
    assert run_scenario(cfg) == code
    out = capsys.readouterr()
    assert len(out.out.splitlines()) == 1
    assert "Traceback" not in out.out + out.err
    assert not (tmp_path / "out" / "report.json").exists()


def test_brent_iteration_cap_exit_three(tmp_path, monkeypatch, capsys):
    # a Brent root that runs out of steps is a numeric error, not a traceback
    monkeypatch.setattr(control, "BISECT_ITERS", 2)
    cfg = write_config(tmp_path, _small_run_config(tmp_path, "control-verify"))
    assert run_scenario(cfg) == EXIT_NUMERIC
    out = capsys.readouterr()
    assert len(out.out.splitlines()) == 1
    assert "NumericalError: Brent root not converged after 8 evaluations" in out.out
    assert "Traceback" not in out.out + out.err
    assert not (tmp_path / "out" / "report.json").exists()


def test_reports_are_strict_json(tmp_path):
    # both routes report the sup/inf ratio monitor as a finite number, and agree
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    # on this wrong equilibrium the ratio peaks after t = 0, where the routes differ
    ratios = {}
    for experiment in ("simulate-dde", "simulate-pde"):
        doc = base_config(str(tmp_path / experiment), experiment=experiment)
        doc["model"] = {"p": 2.0,
                        "source": {"kind": "kernel_inf", "kernel": "log", "h_inf": 1.0},
                        "functional": {"q": 1.0, "eps0": 1.0, "a": "inverse_square",
                                       "b": "h_at_eps0"}}
        doc["initial"] = {"family": "wrong_equilibrium", "p_prime": 1.5}
        # stride 1: the ratio's maximum is taken over every step
        doc["run"] = {"T": 0.4, "dt": 0.02, "stride": 1}
        cfg = write_config(tmp_path, doc, name=f"{experiment}.json")
        assert run_scenario(cfg) == EXIT_PASS
        text = (tmp_path / experiment / "report.json").read_text()
        ratios[experiment] = json.loads(text, parse_constant=reject)[experiment][
            "sup_inf_ratio_max"]
    dde_ratio, pde_ratio = ratios["simulate-dde"], ratios["simulate-pde"]
    assert isinstance(dde_ratio, float) and np.isfinite(dde_ratio)
    assert abs(dde_ratio / pde_ratio - 1.0) < 1e-6  # the default equivalence_tol


def test_cumulative_rho_slack_ignores_stride(tmp_path):
    # the slack integrates every committed step, so striding the output moves nothing
    slack = {}
    for stride in (1, 5):
        doc = base_config(str(tmp_path / f"stride{stride}"), experiment="simulate-pde")
        doc["model"] = {"p": 2.0,
                        "source": {"kind": "kernel_inf", "kernel": "log", "h_inf": 1.0},
                        "functional": {"q": 1.0, "eps0": 1.0, "a": "inverse_square",
                                       "b": "h_at_eps0"}}
        doc["initial"] = {"family": "wrong_equilibrium", "p_prime": 3.0}
        doc["run"] = {"T": 0.2, "dt": 0.02, "stride": stride}
        cfg = write_config(tmp_path, doc, name=f"stride{stride}.json")
        assert run_scenario(cfg) == EXIT_PASS
        report = json.loads((tmp_path / f"stride{stride}" / "report.json").read_text())
        slack[stride] = report["simulate-pde"]["cumulative_rho_bound_slack"]
    assert slack[5] == slack[1]


def test_cli_override_flags(tmp_path):
    doc = base_config(str(tmp_path / "ignored"), experiment="simulate-pde")
    cfg = write_config(tmp_path, doc)
    out = str(tmp_path / "cli_out")
    code = cli_main(["simulate-pde", "--config", cfg, "--out", out,
                     "--T", "1.0", "--dt", "0.05"])
    assert code == EXIT_PASS
    traj = (tmp_path / "cli_out" / "trajectory_pde.csv").read_text().splitlines()
    assert traj[0] == "t,rho,I,dist1inf,norm2inf,denomL1"
    last_t = float(traj[-1].split(",")[0])
    assert abs(last_t - 1.0) < 1e-12


def test_simulate_dde_with_cross_check(tmp_path):
    doc = base_config(str(tmp_path / "out"), experiment="simulate-dde")
    doc["initial"] = {"family": "scaled_equilibrium", "factor": 1.1}
    doc["run"] = {"T": 1.0, "dt": 0.01, "stride": 5}
    doc["options"] = {"cross_check_pde": True, "equivalence_tol": 1e-6}
    cfg = write_config(tmp_path, doc)
    assert run_scenario(cfg) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["simulate-dde"]["pde_dde_rel_diff"] < 1e-6
    header = (tmp_path / "out" / "dde_series.csv").read_text().splitlines()[0]
    assert header == "t,I,dlogIdt,f,g"


def test_determinism_byte_identical(tmp_path):
    doc = base_config(str(tmp_path / "o1"), experiment="simulate-pde")
    doc["run"] = {"T": 0.5, "dt": 0.05, "stride": 2}
    cfg1 = write_config(tmp_path, doc, "s1.json")
    run_scenario(cfg1)
    doc["output"]["dir"] = str(tmp_path / "o2")
    cfg2 = write_config(tmp_path, doc, "s2.json")
    run_scenario(cfg2)
    csv1 = (tmp_path / "o1" / "trajectory_pde.csv").read_bytes()
    csv2 = (tmp_path / "o2" / "trajectory_pde.csv").read_bytes()
    assert csv1 == csv2
    r1 = json.loads((tmp_path / "o1" / "report.json").read_text())
    r2 = json.loads((tmp_path / "o2" / "report.json").read_text())
    for rep in (r1, r2):
        rep["simulate-pde"].pop("wall_time_s")
        rep["simulate-pde"].pop("config_hash")  # differs through output.dir
    assert r1 == r2


def test_suite_runs_subscenarios(tmp_path):
    out = str(tmp_path / "suite_out")
    doc = {
        "experiment": "suite",
        "seed": 3,
        "output": {"dir": out},
        "options": {"workers": 2},
        "scenarios": [
            base_config(out),
            base_config(out, experiment="simulate-pde"),
        ],
    }
    cfg = write_config(tmp_path, doc)
    assert run_scenario(cfg) == EXIT_PASS
    report = json.loads((tmp_path / "suite_out" / "report.json").read_text())
    entry = report["suite"]
    assert len(entry["scenarios"]) == 2
    assert all(sub["pass"] for sub in entry["scenarios"].values())
    assert entry["pass"]


def test_suite_empty_list_gives_empty_map(tmp_path):
    out = str(tmp_path / "empty_out")
    cfg = write_config(tmp_path, {"experiment": "suite", "scenarios": [],
                                  "output": {"dir": out}})
    assert run_scenario(cfg) == EXIT_PASS
    report = json.loads((tmp_path / "empty_out" / "report.json").read_text())
    assert report["suite"]["scenarios"] == {}
    assert report["suite"]["pass"]


def test_linear_stability_runner(tmp_path):
    doc = base_config(str(tmp_path / "out"), experiment="linear-stability")
    doc["run"] = {"T": 8.0, "dt": 0.02, "stride": 1}
    doc["options"] = {"kernel_grid": 100, "contour_omega": 10.0}
    cfg = write_config(tmp_path, doc)
    assert run_scenario(cfg) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    entry = report["linear-stability"]
    assert entry["kernel_min"] > 0.0
    assert entry["h3"]["winding_number"] == 0
    header = (tmp_path / "out" / "kernel.csv").read_text().splitlines()[0]
    assert header == "t,K,expK_monotone_margin"


def test_volterra_demo_runner(tmp_path):
    doc = {"experiment": "volterra-demo", "seed": 0,
           "model": {"p": 2.0, "source": {"kind": "constant", "h_inf": 1.0}},
           "output": {"dir": str(tmp_path / "out")},
           "options": {"T": 4.0, "dt": 0.001, "gripenberg_T": 60.0,
                       "gripenberg_dt": 0.1, "dde_T": 30.0, "dde_dt": 0.02}}
    cfg = write_config(tmp_path, doc)
    assert run_scenario(cfg) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["volterra-demo"]["closed_form_solution_err"] < 1e-5


def test_control_verify_runner(tmp_path):
    doc = {"experiment": "control-verify", "seed": 5,
           "model": {"p": 2.0,
                     "source": {"kind": "kernel_inf", "kernel": "log", "h_inf": 1.0}},
           "output": {"dir": str(tmp_path / "out")},
           "options": {"n_samples": 10, "n_histories": 10, "T": 2.0}}
    cfg = write_config(tmp_path, doc)
    assert run_scenario(cfg) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    entry = report["control-verify"]
    assert set(entry["certificates"]) == {"max01", "min1inf", "max01w", "min1infw"}
    for variant, cert in entry["certificates"].items():
        assert cert["worst_margin"] <= 1e-6
        assert cert["seed"] == 5
    assert (tmp_path / "out" / "value_max01.csv").read_text().splitlines()[0] == "x,t,value"
    assert entry["certificates"]["max01"]["model"] == "kernel_inf(log)"
