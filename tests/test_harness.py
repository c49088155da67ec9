import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nltransport
from nltransport.cli import SUBCOMMANDS, main as cli_main
from nltransport.config import OPTIONS, ConfigError, Scenario, load, validate
from nltransport import config, control, experiments
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


def test_load_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ConfigError) as err:
        load(str(path))
    assert "nested too deeply" in str(err.value)


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
    # kernel_p/log diverges, and there is no tabulated kind (a table ends
    # where J does not): both are schema errors before any run
    doc = base_config(str(tmp_path / "out"))
    doc["model"]["source"] = source
    assert run_scenario(write_config(tmp_path, doc)) == EXIT_SCHEMA
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and field in out
    assert not (tmp_path / "out" / "report.json").exists()


PERTURBED = {"family": "perturbed_equilibrium"}


@pytest.mark.parametrize("section, key, value, given", [
    (("model",), "p", float("inf"), {}),
    (("model", "functional"), "eps0", float("inf"), {}),
    (("model", "functional"), "q", float("nan"), {}),
    (("model", "source"), "h_inf", 10 ** 400, {}),
    (("model", "functional"), "q", True, {}),
    ((), "seed", True, {}),
    (("model", "functional"), "b_scale", "2", {}),
    (("model", "functional"), "b", "abc", {}),
    (("model", "functional"), "b", True, {}),
    (("model", "functional"), "a", "cubic", {}),
    (("initial",), "amplitude", "x", PERTURBED),
    (("initial",), "decay", float("inf"), PERTURBED),
    # a misspelled or misplaced field is unknown to its section's table
    (("model", "source"), "hinf", 2.0, {}),
    (("model", "source"), "cuttoff", 2.0, {"kind": "kernel_inf", "kernel": "compact"}),
    (("model", "functional"), "eps", 2.0, {}),
    (("initial",), "p_prim", 3.0, {"family": "wrong_equilibrium", "p_prime": 3.0}),
    (("run",), "dT", 0.5, {}),
    (("run",), "strid", 2, {}),
    (("output",), "dri", "elsewhere", {}),
    ((), "sede", 3, {}),
    (("model", "source"), "kernel", "nope", {}),
    (("model", "source"), "cutoff", -1, {}),
    (("initial",), "p_prime", 3.0, {}),
], ids=["p-infinity", "eps0-infinity", "q-nan", "h_inf-huge-int", "q-true", "seed-true",
        "b_scale-string", "b-string", "b-true", "a-unknown", "amplitude-string",
        "decay-infinity", "source-hinf", "source-cuttoff", "functional-eps",
        "initial-p_prim", "run-dT", "run-strid", "output-dri", "top-level-sede",
        "constant-kernel", "constant-cutoff", "equilibrium-p_prime"])
def test_non_finite_and_boolean_numbers_exit_one(tmp_path, capsys, section, key, value,
                                                 given):
    # json reads Infinity, NaN and true as numbers, and a field may hold a
    # string where a number belongs; the schema takes none of them, nor a key
    # its section does not declare.  The section holds ``given`` besides the
    # bad field (the initial family whose builder reads it).
    doc = base_config(str(tmp_path / "out"))
    target = doc
    for name in section:
        target = target[name]
    target.update(given)
    target[key] = value
    assert run_scenario(write_config(tmp_path, doc)) == EXIT_SCHEMA
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and ".".join(("config",) + section + (key,)) in out
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("section, given, key", [
    ("source", {"kind": "kernel_inf", "kernel": "log", "cutoff": 5.0}, "cutoff"),
    ("source", {"kind": "kernel_inf", "cutoff": 5.0}, "cutoff"),  # log by default
    ("source", {"kind": "kernel_inf", "kernel": "inv_square", "cutoff": 5.0}, "cutoff"),
    ("source", {"kind": "kernel_p", "kernel": "inv_square", "cutoff": 5.0}, "cutoff"),
    ("functional", {"b": 3.0, "b_scale": 7.0}, "b_scale"),
], ids=["log-cutoff", "default-log-cutoff", "inv_square-cutoff", "kernel_p-inv_square-cutoff",
        "numeric-b-b_scale"])
def test_fields_the_variant_does_not_read_exit_one(tmp_path, capsys, section, given, key):
    # cutoff belongs to the compact kernel and b_scale to b = h_at_eps0: given
    # beside another kernel or a numeric b they would be ignored, so they are
    # schema errors naming the field
    doc = base_config(str(tmp_path / "out"))
    doc["model"][section] = given
    assert run_scenario(write_config(tmp_path, doc)) == EXIT_SCHEMA
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and f"config.model.{section}.{key}" in out
    assert not (tmp_path / "out" / "report.json").exists()
    # the same fields where their variant reads them
    doc["model"]["source"] = {"kind": "kernel_inf", "kernel": "compact", "cutoff": 5.0}
    doc["model"]["functional"] = {"b": "h_at_eps0", "b_scale": 7.0}
    resolved = validate(doc).model_cfg
    assert resolved["source"]["cutoff"] == 5.0 and resolved["functional"]["b_scale"] == 7.0


def test_volterra_demo_reads_no_model(tmp_path, capsys):
    # volterra-demo's problems are fixed: it runs without a model, and takes
    # initial and run unchecked like every section it does not read; a model
    # given to it is checked all the same
    doc = _small_run_config(tmp_path, "volterra-demo")
    model = doc.pop("model")
    scn = validate({**doc, "initial": {"family": "nope"}, "run": {"dt": -1.0}})
    assert (scn.model_cfg, scn.initial_cfg, scn.run_cfg) == ({}, {}, {})
    assert run_scenario(write_config(tmp_path, doc)) == EXIT_PASS
    assert validate({**doc, "model": model}).model_cfg["p"] == 2.0
    doc["model"] = {**model, "p": -1.0}
    capsys.readouterr()
    assert run_scenario(write_config(tmp_path, doc)) == EXIT_SCHEMA
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 and "config.model.p" in out


def test_volterra_demo_on_single_node_grids(tmp_path):
    # every horizon below half a step: each problem has the one node t = 0,
    # where the solution is its forcing and every residual vanishes
    doc = _small_run_config(tmp_path, "volterra-demo")
    doc["options"] = {"T": 4e-4, "dt": 1e-3, "gripenberg_T": 0.04, "gripenberg_dt": 0.1,
                      "dde_T": 1e-3, "dde_dt": 0.02}
    assert run_scenario(write_config(tmp_path, doc)) == EXIT_PASS
    entry = json.loads((tmp_path / "out" / "report.json").read_text())["volterra-demo"]
    for key in ("closed_form_solution_err", "closed_form_resolvent_err",
                "reconstruction_residual", "dde_tail_oscillation",
                "dde_cross_check_residual"):
        assert entry[key] == 0.0, key
    for name in ("volterra_u.csv", "linear_dde_I.csv"):
        assert len((tmp_path / "out" / name).read_text().splitlines()) == 2, name


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


def _fresh_json(tmp_path, script, *args, env=None):
    """The JSON last line a fresh interpreter prints, with src/ on its path,
    in ``env`` (default: this process's environment)."""
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = [os.path.abspath(src_dir)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ if env is None else env, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _scipy_modules_after(tmp_path, script, *args):
    """The sorted scipy modules a fresh interpreter holds after the script."""
    script += ("\nimport json\nprint(json.dumps(sorted(m for m in sys.modules "
               "if m.split('.')[0] == 'scipy')))\n")
    return _fresh_json(tmp_path, script, *args)


@pytest.mark.parametrize("experiment", ["control-verify", "linear-stability",
                                        "volterra-demo", "equilibrium",
                                        "simulate-pde"])
def test_experiment_import_budget(tmp_path, experiment):
    # no experiment loads scipy (simulate-dde is checked above): it is a test
    # dependency only
    doc = _doc_for(tmp_path, experiment)
    if experiment in ("equilibrium", "simulate-pde"):
        doc["model"]["source"] = {"kind": "kernel_inf", "kernel": "log", "h_inf": 1.0}
    cfg = write_config(tmp_path, doc)
    script = ("import sys\n"
              "import nltransport.cli\n"
              "code = nltransport.cli.main([sys.argv[1], '--config', sys.argv[2]])\n"
              "assert code == 0, code")
    assert _scipy_modules_after(tmp_path, script, experiment, cfg) == []


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _threads_after_run(tmp_path, **preset):
    """OS threads and OPENBLAS_NUM_THREADS of a fresh interpreter after a
    volterra-demo run, with only the given BLAS thread variables set."""
    cfg = write_config(tmp_path, _small_run_config(tmp_path, "volterra-demo"))
    script = ("import json, os, sys\n"
              "import nltransport.cli\n"
              "code = nltransport.cli.main(['volterra-demo', '--config', sys.argv[1]])\n"
              "assert code == 0, code\n"
              "with open('/proc/self/status') as f:\n"
              "    threads = [int(line.split()[1]) for line in f if line.startswith('Threads:')]\n"
              "print(json.dumps([threads[0], os.environ.get('OPENBLAS_NUM_THREADS')]))\n")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return _fresh_json(tmp_path, script, cfg, env={**env, **preset})


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status to count threads")
def test_runs_use_one_blas_thread(tmp_path):
    # every run is serial: importing the package pins numpy's BLAS to the
    # calling thread, unless the caller chose a thread count itself
    assert _threads_after_run(tmp_path) == [1, "1"]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        pytest.skip("a preset thread count shows only with two or more CPUs")
    threads, openblas = _threads_after_run(tmp_path, OMP_NUM_THREADS="2")
    assert openblas is None
    assert threads >= 2


def test_bench_tracer_targets_resolve(tmp_path):
    # bench/tracing.py wraps its TARGETS by name; a renamed or deleted layer
    # function must fail here, not only in a traced benchmark run
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    script = (
        "import importlib, json, sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "from tracing import TARGETS, Tracer, install\n"
        "install(Tracer())\n"
        "unwrapped = []\n"
        "for module, attr, span in TARGETS:\n"
        "    obj = importlib.import_module('nltransport.' + module)\n"
        "    for part in attr.split('.'):\n"
        "        obj = getattr(obj, part)\n"
        "    if not hasattr(obj, '__wrapped__'):\n"
        "        unwrapped.append(f'{module}.{attr}')\n"
        "print(len(TARGETS), json.dumps(unwrapped))\n")
    done = subprocess.run([sys.executable, "-c", script, os.path.join(root, "bench"),
                           os.path.join(root, "src")], capture_output=True, text=True,
                          cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    count, unwrapped = done.stdout.splitlines()[-1].split(" ", 1)
    assert int(count) > 0
    assert json.loads(unwrapped) == []


# Public names that nothing in src/ or bench/ calls, kept in src/ for a reason.
KEPT = {
    "dde.const_h_ode": "crit 08's separate route for constant sources, and a "
                       "documented library feature",
    "dde.dF_gradient": "the history gradient that ROADMAP item 2's adversarial "
                       "search in control-verify is to climb",
    "control.stationarity_check": "ROADMAP item 2 wires it into the "
                                  "control-verify report",
    "linstab.Linearization.delay_problem": "the linearization's delay form",
    "linstab.Linearization.convolution_delay_problem":
        "the linearization's convolution delay form",
}


def _public_definitions(tree, module):
    """(qualified name, name, is a method) of each public def and class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield f"{module}.{node.name}", node.name, False
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def test_src_has_no_test_only_public_names():
    # a public function, class or method that only tests reach belongs in
    # tests/ (oracles.py beside the tests that use it), or nowhere.  A method
    # counts as used only through attribute access: a bare name spelled alike
    # (config.validate for SourceFn.validate) does not reach it.
    root = pathlib.Path(__file__).resolve().parent.parent
    src = sorted((root / "src" / "nltransport").glob("*.py"))
    tracing = root / "bench" / "tracing.py"
    trees = {path: ast.parse(path.read_text())
             for path in src + sorted((root / "bench").glob("*.py"))}
    names, attributes = set(nltransport.__all__), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    traced = {f"{node.elts[0].value}.{node.elts[1].value}"
              for node in ast.walk(trees[tracing])
              if isinstance(node, ast.Tuple) and len(node.elts) == 3
              and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                      for e in node.elts)}
    unreferenced = sorted(
        qualified for path in src
        for qualified, name, method in _public_definitions(trees[path], path.stem)
        if name not in attributes and (method or name not in names)
        and qualified not in traced)
    if unreferenced != sorted(KEPT):
        lines = [f"{name} (kept: {KEPT[name]})" if name in KEPT else name
                 for name in unreferenced]
        lines += [f"{name} (in KEPT, but referenced or gone)"
                  for name in sorted(set(KEPT) - set(unreferenced))]
        pytest.fail(f"{len(unreferenced)} public names that nothing in src/ or "
                    "bench/ references:\n" + "\n".join(lines))


def test_src_references_every_private_definition():
    # a private module-level function or class that src/ no longer reaches
    # (only a test imports it) is dead code: src/ must reference each one as
    # a name, an attribute or an import
    root = pathlib.Path(__file__).resolve().parent.parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((root / "src" / "nltransport").glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    private = [f"{module}.{node.name}" for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert private
    unreferenced = [name for name in private if name.split(".")[1] not in referenced]
    assert unreferenced == [], f"private definitions nothing in src/ references: {unreferenced}"


def _doc_for(tmp_path, experiment):
    """A small valid scenario for the experiment, written to tmp_path/out."""
    out = str(tmp_path / "out")
    if experiment == "suite":
        return {"experiment": "suite", "output": {"dir": out},
                "scenarios": [_small_run_config(tmp_path, "linear-stability")]}
    if experiment in ("control-verify", "linear-stability", "volterra-demo"):
        return _small_run_config(tmp_path, experiment)
    return base_config(out, experiment=experiment)


# (experiment, where the options go, options, flags, what the one line names)
SCHEMA_CASES = {
    "n_samples-string": ("control-verify", (), {"n_samples": "4"}, [],
                         "config.options.n_samples"),
    "tolerance-string": ("equilibrium", (), {"tolerance": "1e-6"}, [],
                         "config.options.tolerance"),
    "dt-nan": ("simulate-dde", (), {}, ["--dt", "nan"], "config.run.dt"),
    "T-inf": ("simulate-dde", (), {}, ["--T", "inf"], "config.run.T"),
    "dt-negative": ("simulate-dde", (), {}, ["--dt", "-0.02"], "config.run.dt"),
    "T-zero": ("simulate-dde", (), {}, ["--T", "0"], "config.run.T"),
    "seed-negative": ("equilibrium", (), {}, ["--seed", "-1"], "config.seed"),
    "suite-entry-dt": ("suite", (), {}, ["--dt", "-1"], "config.scenarios[0].run.dt"),
    "workers-zero": ("suite", (), {"workers": 0}, [], "config.options.workers"),
    "kernel_grid-one": ("linear-stability", (), {"kernel_grid": 1}, [],
                        "config.options.kernel_grid"),
    "amplitude-zero": ("linear-stability", (), {"amplitude": 0.0}, [],
                       "config.options.amplitude"),
    "contour_omega-negative": ("linear-stability", (), {"contour_omega": -5}, [],
                               "config.options.contour_omega"),
    "no-samples": ("control-verify", (), {"n_samples": 0, "n_histories": 0}, [],
                   "config.options.n_samples"),
    "t-after-T": ("control-verify", (), {"t": 2.0}, [], "config.options.t"),
    "cross_check_pde-int": ("simulate-dde", (), {"cross_check_pde": 1}, [],
                            "config.options.cross_check_pde"),
    "unknown-option": ("equilibrium", (), {"typo_option": 1}, [],
                       "config.options.typo_option"),
    "suite-entry-option": ("suite", ("scenarios", 0), {"kernel_grid": 1}, [],
                           "config.scenarios[0].options.kernel_grid"),
    "control-verify-T-dt": ("control-verify", (), {}, ["--T", "50", "--dt", "7"],
                            "--T"),
    "volterra-demo-dt": ("volterra-demo", (), {}, ["--dt", "0.1"], "--dt"),
}


@pytest.mark.parametrize("case", SCHEMA_CASES.values(), ids=SCHEMA_CASES.keys())
def test_bad_options_and_flags_exit_one(tmp_path, capsys, case):
    experiment, where, options, flags, needle = case
    doc = _doc_for(tmp_path, experiment)
    target = doc
    for key in where:
        target = target[key]
    target.setdefault("options", {}).update(options)
    code = cli_main([experiment, "--config", write_config(tmp_path, doc), *flags])
    out = capsys.readouterr()
    assert code == EXIT_SCHEMA
    assert len(out.out.splitlines()) == 1 and needle in out.out
    assert "Traceback" not in out.out + out.err
    assert not (tmp_path / "out" / "report.json").exists()


def test_suite_seed_flag_reaches_subscenarios(tmp_path):
    out = tmp_path / "out"
    own_seed = base_config(str(out))
    inherits = base_config(str(out))
    del inherits["seed"]
    doc = {"experiment": "suite", "seed": 1, "output": {"dir": str(out)},
           "scenarios": [inherits, own_seed]}
    assert cli_main(["suite", "--config", write_config(tmp_path, doc),
                     "--seed", "9"]) == EXIT_PASS
    entry = json.loads((out / "report.json").read_text())["suite"]
    assert entry["seed"] == 9
    assert entry["scenarios"]["0:equilibrium"]["seed"] == 9
    assert entry["scenarios"]["1:equilibrium"]["seed"] == 0


def test_out_flag_places_nested_suite_entries(tmp_path):
    doc_out = str(tmp_path / "doc_out")
    inner = {"experiment": "suite", "scenarios": [base_config(doc_out)]}
    doc = {"experiment": "suite", "output": {"dir": doc_out}, "scenarios": [inner]}
    out = tmp_path / "flag_out"
    assert cli_main(["suite", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == EXIT_PASS
    assert (out / "equilibrium_profile.csv").exists()
    assert not (tmp_path / "doc_out").exists()


def test_config_hash_follows_run_flags_not_out(tmp_path):
    # --T edits each entry that reads run; --out places outputs and is hashed nowhere
    unused = str(tmp_path / "unused")
    doc = {"experiment": "suite", "output": {"dir": unused},
           "scenarios": [base_config(unused),
                         base_config(unused, experiment="simulate-pde")]}
    cfg = write_config(tmp_path, doc)
    hashes = {}
    for name, flags in (("a", []), ("b", []), ("T", ["--T", "1.0"])):
        out = tmp_path / name
        code = cli_main(["suite", "--config", cfg, "--out", str(out), *flags])
        assert code == EXIT_PASS
        entry = json.loads((out / "report.json").read_text())["suite"]
        hashes[name] = [entry["config_hash"]] + [
            entry["scenarios"][key]["config_hash"]
            for key in ("0:equilibrium", "1:simulate-pde")]
    assert hashes["a"] == hashes["b"]
    top, equilibrium, simulate = (x != y for x, y in zip(hashes["a"], hashes["T"]))
    assert top and simulate and not equilibrium
    # a suite in which no entry reads run has nothing for --T to change
    doc["scenarios"].pop()
    assert cli_main(["suite", "--config", write_config(tmp_path, doc),
                     "--T", "1.0"]) == EXIT_SCHEMA


# the defaults the runners applied before the options were declared in config
RUNNER_DEFAULTS = {
    "equilibrium": {"tolerance": 1e-6},
    "simulate-pde": {},
    "simulate-dde": {"cross_check_pde": False, "equivalence_tol": 1e-6},
    "linear-stability": {"kernel_grid": 400, "contour_omega": 50.0,
                         "amplitude": 1e-3},
    "volterra-demo": {"T": 10.0, "dt": 1e-3, "gripenberg_T": 200.0,
                      "gripenberg_dt": 0.1, "dde_T": 100.0, "dde_dt": 0.02},
    "control-verify": {"y": 1.0, "T": 3.0, "t": 0.0, "n_samples": 500,
                       "n_histories": 200, "margin_tol": 1e-6},
    "suite": {"workers": 4},
}


@pytest.mark.parametrize("experiment", RUNNER_DEFAULTS)
def test_declared_defaults_match_the_runners(experiment):
    doc = {"experiment": experiment, "scenarios": [],
           "model": {"p": 2.0, "source": {"kind": "kernel_inf", "kernel": "log"}}}
    resolved = validate(doc).options
    assert resolved == RUNNER_DEFAULTS[experiment]
    assert [type(v) for v in resolved.values()] == \
        [type(v) for v in RUNNER_DEFAULTS[experiment].values()]
    if experiment == "equilibrium":
        doc["model"]["source"] = {"kind": "constant"}
        assert validate(doc).options == {"tolerance": 1e-10}


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_default(cell):
    """A default as the README's tables write it, read back."""
    if cell == "required":
        return config.REQUIRED
    if cell.startswith("`"):
        return cell.strip("`")
    if cell.startswith("p"):
        return config.OfP(cell.partition("/")[2] or 1.0)
    if "(" in cell:
        by_kind = config.ByKind()
        for value, kinds in re.findall(r"(\S+) \(([^)]*)\)", cell):
            by_kind.update({kind: json.loads(value) for kind in kinds.split(", ")})
        return by_kind
    return json.loads(cell)


def _readme_range(fld):
    """The range cell of a declared field: its bound, then its strings."""
    bound = [] if fld.typ is str and fld.choices else [fld.bound or "any"]
    return ", ".join(bound + [f"`{c}`" for c in fld.choices])


def test_readme_option_table_matches_config():
    rows, schema = {}, {}
    with open(README) as fh:
        for line in fh:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) < 5 or not cells[0].startswith("`") or cells[1] == "type":
                continue
            if cells[1].startswith("`"):
                rows[cells[0].strip("`"), cells[1].strip("`")] = cells[2:5]
            else:
                field = re.fullmatch(r"`([^`]+)`(?: \((.*)\))?", cells[0])
                schema[field.groups()] = cells[1:4]
    declared = {(exp, name): opt for exp, table in OPTIONS.items()
                for name, opt in table.items()}
    assert sorted(rows) == sorted(declared)
    for key, (typ, bound, default) in rows.items():
        opt = declared[key]
        assert typ == opt.typ.__name__ and bound == (opt.bound or "any")
        if isinstance(opt.default, dict):
            by_kind = {}
            for value, kinds in re.findall(r"(\S+) \(([^)]*)\)", default):
                by_kind.update({kind: json.loads(value) for kind in kinds.split(", ")})
            assert by_kind == opt.default
        else:
            assert json.loads(default) == opt.default

    # every other section: one row per field, or per field and kind (family)
    # where the kind picks the table; a row without kinds holds for all
    plain = {"": config.TOP, "model.": config.MODEL,
             "model.functional.": config.FUNCTIONAL, "run.": config.RUN,
             "output.": config.OUTPUT}
    declared = {(prefix + name, None): fld for prefix, table in plain.items()
                for name, fld in table.items()}
    variants = {"model.source.": ("kind", config.SOURCE_KIND, config.SOURCES),
                "initial.": ("family", config.FAMILY, config.INITIALS)}
    for prefix, (key, fld, tables) in variants.items():
        for choice, table in tables.items():
            declared.update({(prefix + name, choice): f
                             for name, f in {key: fld, **table}.items()})
    documented = {}
    for (path, listed), cells in schema.items():
        prefix = next((p for p in variants if path.startswith(p)), None)
        choices = [None] if prefix is None else \
            listed.split(", ") if listed else list(variants[prefix][2])
        documented.update({(path, choice): cells for choice in choices})
    assert sorted(documented, key=str) == sorted(declared, key=str)
    for key, (typ, bound, default) in documented.items():
        fld = declared[key]
        assert (typ, bound) == (fld.typ.__name__, _readme_range(fld)), key
        assert _readme_default(default) == fld.default, key


def test_readme_example_validates():
    # the README's scenario document passes the schema it documents
    with open(README) as fh:
        block = fh.read().split("```json\n", 1)[1].split("```", 1)[0]
    scn = validate(json.loads(block))
    assert scn.experiment == "simulate-dde" and scn.initial_cfg["p_prime"] == 3.0


def _root_name(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_builders_and_runners_hold_no_second_defaults():
    # validate resolves every section with its defaults, so a builder or runner
    # reads a section by index: a .get on one would hold a second default that
    # can drift from the schema.  A section is anything reached from ``self``
    # or ``scn`` by attributes and indexing, directly or through a local.
    root = pathlib.Path(__file__).resolve().parent.parent / "src" / "nltransport"
    trees = [ast.parse((root / name).read_text())
             for name in ("config.py", "experiments.py")]
    scenario = next(node for node in trees[0].body
                    if isinstance(node, ast.ClassDef) and node.name == "Scenario")
    funcs = [node for node in scenario.body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("build_")]
    funcs += [node for node in trees[1].body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("run_")]
    assert len(funcs) >= 10
    offending = []
    for func in funcs:
        sections = {"self", "scn"}
        assigns = [node for node in ast.walk(func) if isinstance(node, ast.Assign)]
        for _ in range(3):  # locals of locals
            sections |= {target.id for node in assigns
                         if _root_name(node.value) in sections
                         for target in node.targets if isinstance(target, ast.Name)}
        offending += [f"{func.name}: line {node.lineno}" for node in ast.walk(func)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute) and node.func.attr == "get"
                      and _root_name(node.func.value) in sections]
    assert offending == []


def _containers(inner):
    return st.lists(inner, max_size=3) \
        | st.dictionaries(st.text(max_size=5), inner, max_size=3)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=5),
    _containers, max_leaves=8)
_FLAG = st.sampled_from([None, None, None, 0.0, -0.02, 1e-300, 1e300, 0.5]) \
    | st.floats(allow_nan=True, allow_infinity=True)


def _rarely(draw, value, other, one_in=4):
    """``value``, replaced by a draw from ``other`` one time in ``one_in``."""
    return draw(other) if draw(st.sampled_from([False] * (one_in - 1) + [True])) \
        else value


@st.composite
def _scenario_documents(draw, depth=1):
    """A small valid scenario with some options and fields replaced at random."""
    experiment = draw(st.sampled_from(SUBCOMMANDS))
    doc = base_config("out", experiment=experiment)
    if experiment == "suite":
        entries = _scenario_documents(depth - 1) | _JSON if depth else _JSON
        doc["scenarios"] = draw(st.lists(entries, max_size=2))
    table = OPTIONS[experiment]
    names = draw(st.lists(st.sampled_from(sorted(table) + ["typo_option"]), max_size=2))
    names = [_rarely(draw, name, st.text(max_size=5)) for name in names]
    doc["options"] = {
        name: _rarely(draw, draw(st.sampled_from([1, 2, 0.5, 2.5, -1.0, True])), _JSON)
        for name in names}
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        doc[key] = _rarely(draw, doc[key], _JSON, one_in=2)
    return _rarely(draw, doc, _JSON, one_in=8)


_OVERRIDES = st.fixed_dictionaries({
    "experiment": st.none() | st.sampled_from(SUBCOMMANDS), "out": st.none(),
    "seed": st.none() | st.integers(-5, 5), "T": _FLAG, "dt": _FLAG})


@settings(deadline=None, max_examples=400)
@given(doc=_scenario_documents(), overrides=_OVERRIDES)
def test_load_fuzz_gives_a_scenario_or_a_config_error(tmp_path_factory, doc, overrides):
    # validation only: nothing runs, so any other exception is a defect
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(doc))
    try:
        assert isinstance(load(str(path), overrides), Scenario)
    except ConfigError as exc:
        assert str(exc)


@settings(deadline=None, max_examples=30)
@given(experiment=st.sampled_from(["simulate-pde", "simulate-dde"]),
       T=st.floats(0.02, 1.0), dt=st.floats(0.02, 0.25), stride=st.integers(1, 20))
def test_valid_runs_never_exit_numeric(tmp_path_factory, experiment, T, dt, stride):
    # short runs, one step long or with a stride that does not divide the step
    # count, must not turn a valid run into exit 3
    out = tmp_path_factory.mktemp("run")
    doc = {"experiment": experiment, "seed": 0,
           "model": {"p": 2.0, "source": {"kind": "kernel_inf", "kernel": "log",
                                          "h_inf": 1.0}},
           "initial": {"family": "wrong_equilibrium", "p_prime": 3.0},
           "run": {"T": T, "dt": dt, "stride": stride},
           "output": {"dir": str(out / "out")}}
    assert run_scenario(write_config(out, doc)) in (EXIT_PASS, EXIT_ASSERTION)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_non_finite_linear_norms_exit_three(tmp_path, capsys):
    # the schema takes any amplitude > 0; at 1e308 every sampled norm
    # overflows, which is a numeric error, not a traceback on a missing fit
    doc = _small_run_config(tmp_path, "linear-stability")
    doc["options"]["amplitude"] = 1e308
    code = cli_main(["linear-stability", "--config", write_config(tmp_path, doc)])
    assert code == EXIT_NUMERIC
    out = capsys.readouterr()
    assert len(out.out.splitlines()) == 1
    assert "NumericalError: linear_evolve: " in out.out
    assert "sampled norms are not finite" in out.out
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
        entry = json.loads(text, parse_constant=reject)[experiment]
        ratios[experiment] = entry["sup_inf_ratio_max"]
        # the step telemetry: 20 steps, each accepted below the tolerance
        assert 1.0 <= entry["fixed_point_evals_mean"] <= entry["fixed_point_evals_max"]
        assert isinstance(entry["fixed_point_evals_max"], int)
        assert 0.0 <= entry["fixed_point_residual_max"] < 1e-12
    dde_ratio, pde_ratio = ratios["simulate-dde"], ratios["simulate-pde"]
    assert isinstance(dde_ratio, float) and np.isfinite(dde_ratio)
    assert abs(dde_ratio / pde_ratio - 1.0) < 1e-6  # the default equivalence_tol


def test_cumulative_rho_slack_ignores_stride(tmp_path):
    # the scalar checks read every committed step, so striding the output moves
    # none of them, even at strides that do not divide the 10 steps
    checks = {"simulate-pde": ("cumulative_rho_bound_slack", "consistency_residual",
                               "I_min", "I_max", "denom_min"),
              "simulate-dde": ("consistency_residual", "I_min", "I_max", "denom_min",
                               "I_tail_oscillation", "pde_dde_rel_diff", "dlogI_l1")}
    for experiment, fields in checks.items():
        values = {}
        for stride in (1, 3, 7):
            out = tmp_path / f"{experiment}-{stride}"
            doc = base_config(str(out), experiment=experiment)
            doc["model"] = {"p": 2.0,
                            "source": {"kind": "kernel_inf", "kernel": "log",
                                       "h_inf": 1.0},
                            "functional": {"q": 1.0, "eps0": 1.0,
                                           "a": "inverse_square", "b": "h_at_eps0"}}
            doc["initial"] = {"family": "wrong_equilibrium", "p_prime": 3.0}
            doc["run"] = {"T": 0.2, "dt": 0.02, "stride": stride}
            if experiment == "simulate-dde":
                doc["options"] = {"cross_check_pde": True, "equivalence_tol": 1e-6}
            cfg = write_config(tmp_path, doc, name=f"{experiment}-{stride}.json")
            assert run_scenario(cfg) == EXIT_PASS
            entry = json.loads((out / "report.json").read_text())[experiment]
            values[stride] = {name: entry[name] for name in fields}
            # the delay route makes the slack 0 by construction, so it is not reported
            assert ("cumulative_rho_bound_slack" in entry) == (experiment == "simulate-pde")
        assert values[3] == values[1] and values[7] == values[1], experiment


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


def test_linear_stability_off_grid_step(tmp_path):
    # dt does not divide T: the kernel and forcing tables share the solver's
    # grid, which ends at round(T/dt) dt = 4.02
    doc = base_config(str(tmp_path / "out"), experiment="linear-stability")
    doc["run"] = {"T": 4.0, "dt": 0.06}
    doc["options"] = {"kernel_grid": 100, "contour_omega": 10.0}
    assert run_scenario(write_config(tmp_path, doc)) == EXIT_PASS


def test_linear_stability_on_a_single_node_grid(tmp_path, capsys):
    # T < dt/2 leaves the one node t = 0: too few samples for the decay fit,
    # which is a numeric error with a one-line message, not a traceback
    doc = base_config(str(tmp_path / "out"), experiment="linear-stability")
    doc["run"] = {"T": 0.005, "dt": 0.02}
    doc["options"] = {"kernel_grid": 100, "contour_omega": 10.0}
    assert run_scenario(write_config(tmp_path, doc)) == EXIT_NUMERIC
    assert "rate fit needs" in capsys.readouterr().out


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


def test_linear_stability_fails_on_an_inconclusive_contour(tmp_path, monkeypatch):
    # a winding number from a contour whose truncation tail is not small
    # against the minimum modulus certifies nothing, so the run fails
    from nltransport import linstab

    def inconclusive(self, omega=50.0):
        return {"status": "inconclusive", "winding_number": 0,
                "min_abs_one_plus_khat": 1e-3, "tail_bound": 1.0}

    monkeypatch.setattr(linstab.Linearization, "condition_H3", inconclusive)
    cfg = write_config(tmp_path, _small_run_config(tmp_path, "linear-stability"))
    assert run_scenario(cfg) == EXIT_ASSERTION
    entry = json.loads((tmp_path / "out" / "report.json").read_text())["linear-stability"]
    assert entry["h3"]["winding_number"] == 0 and entry["pass"] is False


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


@pytest.mark.parametrize("source,model,options", [
    ({"kind": "kernel_inf", "kernel": "log", "h_inf": 1.0}, "kernel_inf(log)", {}),
    # a flat payoff for all four variants: the closed forms need no control
    ({"kind": "constant", "h_inf": 1.0}, "constant", {}),
    # a terminal state far out: the closed-form level map has no range of
    # its own, where its tables stopped at z = 1e6
    ({"kind": "kernel_inf", "kernel": "log", "h_inf": 1.0}, "kernel_inf(log)",
     {"y": 2e6}),
    # terminal states near 0: the payoff densities peak like 1/(y + T - s) at
    # s = T, and the frozen-ratio boundaries overflow to infinity
    ({"kind": "kernel_inf", "kernel": "log", "h_inf": 1.0}, "kernel_inf(log)",
     {"y": 1e-3}),
    ({"kind": "kernel_inf", "kernel": "log", "h_inf": 1.0}, "kernel_inf(log)",
     {"y": 1e-6}),
    # a support below 1e-3: z_inf is the cutoff, not 0 (a flat payoff)
    ({"kind": "kernel_inf", "kernel": "compact", "cutoff": 1e-4, "h_inf": 1.0},
     "kernel_inf(compact(0.0001))", {}),
], ids=["log", "constant", "log-y2e6", "log-y1e-3", "log-y1e-6", "compact-cutoff1e-4"])
def test_control_verify_runner(tmp_path, source, model, options):
    doc = {"experiment": "control-verify", "seed": 5,
           "model": {"p": 2.0, "source": source},
           "output": {"dir": str(tmp_path / "out")},
           "options": {"n_samples": 10, "n_histories": 10, "T": 2.0, **options}}
    cfg = write_config(tmp_path, doc)
    assert run_scenario(cfg) == EXIT_PASS
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    entry = report["control-verify"]
    assert set(entry["certificates"]) == {"max01", "min1inf", "max01w", "min1infw"}
    for variant, cert in entry["certificates"].items():
        assert cert["worst_margin"] <= 1e-6
        assert cert["seed"] == 5
    assert (tmp_path / "out" / "value_max01.csv").read_text().splitlines()[0] == "x,t,value"
    assert entry["certificates"]["max01"]["model"] == model
