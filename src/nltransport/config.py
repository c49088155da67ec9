"""Scenario configuration: JSON schema, validation and model construction.

A scenario is a single JSON document with nested sections (documented in the
README): ``model`` (source kind/parameters, functional parameters, p),
``initial`` (profile family), ``run`` (T, dt, stride), ``output``, ``seed``,
an ``experiment`` selector, and per-experiment ``options``, checked against
the one declared table ``OPTIONS``.  Validation errors carry the offending
field path.  ``load`` applies the command-line flags as edits to the document
before its one validation, so the flags pass the same checks and enter the
config hash.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .functionals import FunctionalSpec, Profile
from .model import Model
from .sources import (NAMED_KERNELS, SourceFn, compact_kernel, compact_source,
                      constant_source, inv_square_p_source, log_source)

EXPERIMENTS = ("equilibrium", "simulate-pde", "simulate-dde", "linear-stability",
               "volterra-demo", "control-verify", "suite")


# the experiments that read the run section: the only ones --T and --dt edit
RUN_EXPERIMENTS = ("simulate-pde", "simulate-dde", "linear-stability")


class ConfigError(ValueError):
    """Schema violation; the message names the field path."""


@dataclass(frozen=True)
class Option:
    """One experiment option: its type, its default and the range it must lie in.

    ``bound`` is ``None`` (any finite value) or ``"> x"`` / ``">= x"``; a
    default given as a dict is keyed by ``model.source.kind``.
    """

    typ: type
    default: Any
    bound: str | None = None


OPTIONS = {
    "equilibrium": {
        # a constant source has its equilibrium in closed form, so its gate is tighter
        "tolerance": Option(float, {"constant": 1e-10, "kernel_inf": 1e-6,
                                    "kernel_p": 1e-6}),
    },
    "simulate-pde": {},
    "simulate-dde": {
        "cross_check_pde": Option(bool, False),
        "equivalence_tol": Option(float, 1e-6),
    },
    "linear-stability": {
        "kernel_grid": Option(int, 400, ">= 2"),
        "contour_omega": Option(float, 50.0, "> 0"),
        "amplitude": Option(float, 1e-3, "> 0"),
    },
    "volterra-demo": {
        "T": Option(float, 10.0, "> 0"),
        "dt": Option(float, 1e-3, "> 0"),
        "gripenberg_T": Option(float, 200.0, "> 0"),
        "gripenberg_dt": Option(float, 0.1, "> 0"),
        "dde_T": Option(float, 100.0, "> 0"),
        "dde_dt": Option(float, 0.02, "> 0"),
    },
    "control-verify": {
        "y": Option(float, 1.0, "> 0"),
        "T": Option(float, 3.0, "> 0"),
        "t": Option(float, 0.0),
        "n_samples": Option(int, 500, ">= 1"),
        "n_histories": Option(int, 200, ">= 1"),
        "margin_tol": Option(float, 1e-6),
    },
    "suite": {
        "workers": Option(int, 4, ">= 1"),
    },
}

_COMPARE = {">": operator.gt, ">=": operator.ge}


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


_MISSING = object()


def _get(section: dict, key: str, path: str, typ, default=_MISSING):
    if key not in section:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    val = section[key]
    where = f"{path}.{key}"
    # json gives true/false as bool, an int subclass, and Infinity/NaN as floats
    _expect(not (typ in (int, float) and isinstance(val, bool)), where,
            f"expected {typ.__name__}, got bool")
    if typ is float and isinstance(val, int):
        _expect(abs(val) <= sys.float_info.max, where, "must be finite")
        val = float(val)
    _expect(isinstance(val, typ), where,
            f"expected {getattr(typ, '__name__', typ)}, got {type(val).__name__}")
    _expect(typ is not float or math.isfinite(val), where, f"must be finite, got {val}")
    return val


def _options(doc: dict, experiment: str, path: str, source_kind: str | None) -> dict:
    """The experiment's options from ``OPTIONS``, checked, with defaults filled in."""
    given = _get(doc, "options", path, dict, {})
    table = OPTIONS[experiment]
    for name in given:
        _expect(name in table, f"{path}.options.{name}",
                f"unknown option for {experiment}; it takes "
                f"{', '.join(table) if table else 'none'}")
    resolved = {}
    for name, opt in table.items():
        default = opt.default
        if isinstance(default, dict):
            default = default[source_kind]
        val = _get(given, name, f"{path}.options", opt.typ, default)
        if opt.bound is not None:
            op, limit = opt.bound.split()
            _expect(_COMPARE[op](val, float(limit)), f"{path}.options.{name}",
                    f"must be {opt.bound}, got {val}")
        resolved[name] = val
    if experiment == "control-verify":
        _expect(resolved["t"] < resolved["T"], f"{path}.options.t",
                f"must be < options.T = {resolved['T']}, got {resolved['t']}")
    return resolved


@dataclass
class Scenario:
    experiment: str
    seed: int
    model_cfg: dict
    initial_cfg: dict
    run_cfg: dict
    output_dir: str
    options: dict = field(default_factory=dict)
    sub_scenarios: list = field(default_factory=list)
    raw: dict = field(default_factory=dict)

    # -- constructors ------------------------------------------------------------

    def build_source(self) -> SourceFn:
        cfg = self.model_cfg["source"]
        kind = cfg["kind"]
        h_inf = cfg.get("h_inf", 1.0)
        if kind == "constant":
            return constant_source(h_inf)
        name = cfg.get("kernel", "log")
        if kind == "kernel_inf":
            if name == "log":
                return log_source(h_inf)
            if name == "compact":
                return compact_source(h_inf, cfg.get("cutoff", 1.0))
            return SourceFn(kind="kernel_inf", h_inf=h_inf,
                            kernel=NAMED_KERNELS[name]())
        if name == "inv_square":
            return inv_square_p_source(h_inf, cfg.get("kp", self.model_cfg["p"]))
        return SourceFn(kind="kernel_p", h_inf=h_inf,
                        kernel=compact_kernel(cfg.get("cutoff", 1.0)),
                        p=cfg.get("kp", self.model_cfg["p"]))

    def build_functional(self, source: SourceFn) -> FunctionalSpec:
        cfg = self.model_cfg.get("functional", {})
        q = cfg.get("q", 1.0)
        eps0 = cfg.get("eps0", 1.0)
        b_cfg = cfg.get("b", "h_at_eps0")
        if b_cfg == "h_at_eps0":
            b0 = q * float(source.eval(eps0, 0)) * cfg.get("b_scale", 1.0)
        else:
            b0 = float(b_cfg)
        if cfg.get("a", "inverse_square") == "inverse_square":
            a_fn = lambda y: y ** -2.0
        else:
            a_fn = lambda y: np.exp(-y)
        spec = FunctionalSpec(q=q, eps0=eps0, a=a_fn,
                              b=lambda y: np.full_like(np.asarray(y, float), b0))
        spec.check_dominates(source)
        return spec

    def build_model(self) -> Model:
        source = self.build_source()
        return Model(source, self.build_functional(source), self.model_cfg["p"])

    def build_initial(self, model: Model) -> Profile:
        cfg = self.initial_cfg
        family = cfg.get("family", "equilibrium")
        if family == "equilibrium":
            return model.equilibrium_profile()
        if family == "wrong_equilibrium":
            other = Model(model.source, model.functional, cfg["p_prime"])
            return other.equilibrium_profile()
        if family == "scaled_equilibrium":
            return model.equilibrium_profile().scaled(cfg["factor"])
        if family == "perturbed_equilibrium":
            amp = cfg.get("amplitude", 1e-3)
            decay = cfg.get("decay", 1.0)
            xp = model.equilibrium_profile()

            def pair(y):
                v, d = xp.pair_eval(y)
                bump = amp * np.exp(-decay * y)
                return v * (1.0 + bump), d * (1.0 + bump) - decay * bump * v

            return Profile(
                value=lambda y: pair(y)[0], deriv=lambda y: pair(y)[1],
                descriptor=f"perturbed-equilibrium(amp={amp:g})", pair=pair)
        raise ConfigError(f"initial.family: unknown family {family!r}")


def validate(doc: Any, path: str = "config") -> Scenario:
    _expect(isinstance(doc, dict), path, "top level must be an object")
    experiment = _get(doc, "experiment", path, str)
    _expect(experiment in EXPERIMENTS, f"{path}.experiment",
            f"must be one of {', '.join(EXPERIMENTS)}")
    seed = _get(doc, "seed", path, int, 0)
    _expect(seed >= 0, f"{path}.seed", "must be nonnegative")
    output = _get(doc, "output", path, dict, {})
    out_dir = _get(output, "dir", f"{path}.output", str, "out")

    subs = []
    if experiment == "suite":
        options = _options(doc, experiment, path, None)
        entries = _get(doc, "scenarios", path, list)
        for i, entry in enumerate(entries):
            _expect(isinstance(entry, dict), f"{path}.scenarios[{i}]",
                    "must be an object")
            sub = dict(entry)
            sub.setdefault("seed", seed)
            sub.setdefault("output", {"dir": out_dir})
            subs.append(validate(sub, path=f"{path}.scenarios[{i}]"))
        return Scenario(experiment=experiment, seed=seed, model_cfg={},
                        initial_cfg={}, run_cfg={}, output_dir=out_dir,
                        options=options, sub_scenarios=subs, raw=doc)

    model_cfg = _get(doc, "model", path, dict)
    p = _get(model_cfg, "p", f"{path}.model", float)
    _expect(p > 0, f"{path}.model.p", "must be positive")
    source = _get(model_cfg, "source", f"{path}.model", dict)
    kind = _get(source, "kind", f"{path}.model.source", str)
    _expect(kind in ("constant", "kernel_inf", "kernel_p"),
            f"{path}.model.source.kind", f"unknown source kind {kind!r}")
    if kind in ("kernel_inf", "kernel_p"):
        name = _get(source, "kernel", f"{path}.model.source", str, "log")
        _expect(name in NAMED_KERNELS, f"{path}.model.source.kernel",
                f"must be one of {', '.join(NAMED_KERNELS)}")
        _expect(not (kind == "kernel_p" and name == "log"),
                f"{path}.model.source.kernel",
                "log with kind kernel_p diverges: (1 + p/u)/(1 + u) is not "
                "integrable at infinity")
        for key in ("cutoff", "kp"):
            value = _get(source, key, f"{path}.model.source", float, 1.0)
            _expect(value > 0, f"{path}.model.source.{key}", "must be positive")
    h_inf = _get(source, "h_inf", f"{path}.model.source", float, 1.0)
    _expect(h_inf > 0, f"{path}.model.source.h_inf", "must be positive")
    func = _get(model_cfg, "functional", f"{path}.model", dict, {})
    fpath = f"{path}.model.functional"
    q = _get(func, "q", fpath, float, 1.0)
    _expect(q > 0, f"{fpath}.q", "must be positive")
    eps0 = _get(func, "eps0", fpath, float, 1.0)
    _expect(eps0 > 0, f"{fpath}.eps0", "must be positive")
    a = _get(func, "a", fpath, str, "inverse_square")
    _expect(a in ("inverse_square", "exponential"), f"{fpath}.a",
            f"must be inverse_square or exponential, got {a!r}")
    if func.get("b", "h_at_eps0") != "h_at_eps0":
        _expect(not isinstance(func["b"], str), f"{fpath}.b",
                f"must be a number or 'h_at_eps0', got {func['b']!r}")
        _get(func, "b", fpath, float)
    _get(func, "b_scale", fpath, float, 1.0)

    initial_cfg = _get(doc, "initial", path, dict, {"family": "equilibrium"})
    family = _get(initial_cfg, "family", f"{path}.initial", str, "equilibrium")
    _expect(family in ("equilibrium", "wrong_equilibrium", "scaled_equilibrium",
                       "perturbed_equilibrium"),
            f"{path}.initial.family", f"unknown family {family!r}")
    if family == "wrong_equilibrium":
        pp = _get(initial_cfg, "p_prime", f"{path}.initial", float)
        _expect(pp > 0, f"{path}.initial.p_prime", "must be positive")
    if family == "scaled_equilibrium":
        factor = _get(initial_cfg, "factor", f"{path}.initial", float)
        _expect(factor > 0, f"{path}.initial.factor", "must be positive")
    if family == "perturbed_equilibrium":
        for key, default in (("amplitude", 1e-3), ("decay", 1.0)):
            _get(initial_cfg, key, f"{path}.initial", float, default)

    run_cfg = _get(doc, "run", path, dict, {})
    T = _get(run_cfg, "T", f"{path}.run", float, 10.0)
    dt = _get(run_cfg, "dt", f"{path}.run", float, p / 100.0)
    stride = _get(run_cfg, "stride", f"{path}.run", int, 1)
    _expect(T > 0, f"{path}.run.T", "must be positive")
    _expect(dt > 0, f"{path}.run.dt", "must be positive")
    _expect(stride >= 1, f"{path}.run.stride", "must be >= 1")
    run_cfg = {"T": T, "dt": dt, "stride": stride}
    options = _options(doc, experiment, path, kind)

    return Scenario(experiment=experiment, seed=seed, model_cfg=model_cfg,
                    initial_cfg=initial_cfg, run_cfg=run_cfg, output_dir=out_dir,
                    options=options, raw=doc)


def _edit_run(doc: Any, key: str, value: float) -> int:
    """Set ``run.<key>`` on a document whose experiment reads ``run``, or on
    each such entry of a suite; returns the number of documents edited.  A
    shape the schema rejects is left for ``validate`` to report."""
    if not isinstance(doc, dict):
        return 0
    if doc.get("experiment") == "suite":
        entries = doc.get("scenarios")
        return sum(_edit_run(entry, key, value) for entry in entries) \
            if isinstance(entries, list) else 0
    if doc.get("experiment") in RUN_EXPERIMENTS \
            and isinstance(doc.setdefault("run", {}), dict):
        doc["run"][key] = value
        return 1
    return 0


def load(path: str, overrides: dict | None = None) -> Scenario:
    """Read, edit and validate a scenario document.

    ``overrides`` holds the command-line flags, ``None`` where not given.
    The subcommand (``experiment``), ``seed``, ``T`` and ``dt`` edit the
    document before validation, so they pass its checks and ``Scenario.raw``
    and the config hash include them.  ``out`` only places the outputs and is
    set after validation.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config: JSON nested too deeply to read") from exc
    overrides = overrides or {}
    if isinstance(doc, dict):
        for key in ("experiment", "seed"):
            if overrides.get(key) is not None:
                doc[key] = overrides[key]
        for key in ("T", "dt"):
            value = overrides.get(key)
            if value is not None and not _edit_run(doc, key, value) \
                    and doc.get("experiment") in EXPERIMENTS:
                raise ConfigError(
                    f"--{key}: {doc['experiment']} reads no run section; the flag "
                    f"applies to {', '.join(RUN_EXPERIMENTS)} and to their suites")
    scn = validate(doc)
    placing = [scn] if overrides.get("out") else []
    while placing:  # every entry of a suite, nested suites included
        placed = placing.pop()
        placed.output_dir = overrides["out"]
        placing += placed.sub_scenarios
    return scn
