"""Scenario configuration: one declared schema, validation and model construction.

A scenario is one JSON document (documented in the README) with the sections
``model`` (p, source, functional), ``initial``, ``run``, ``output`` and
``options``.  Each section is checked against its one declared table of
``Field``s: an unknown key, a wrong type or a value out of range is a
``ConfigError`` naming the field path.  ``validate`` returns every section
resolved, defaults filled in, so no builder or runner holds a default.
``load`` applies the command-line flags as edits to the document before its
one validation, so the flags pass the same checks and enter the config hash.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .functionals import WEIGHTS, FunctionalSpec, Profile, canonical_functional
from .model import Model
from .sources import NAMED_KERNELS, SourceFn, compact_kernel

EXPERIMENTS = ("equilibrium", "simulate-pde", "simulate-dde", "linear-stability",
               "volterra-demo", "control-verify", "suite")


# the experiments that read the run section: the only ones --T and --dt edit
RUN_EXPERIMENTS = ("simulate-pde", "simulate-dde", "linear-stability")


class ConfigError(ValueError):
    """Schema violation; the message names the field path."""


REQUIRED = "required"


class OfP(float):
    """A default of ``model.p`` divided by this number."""


class ByKind(dict):
    """A default keyed by ``model.source.kind``."""


@dataclass(frozen=True)
class Field:
    """One field of a scenario section: its type, its default and its range.

    ``default`` is ``REQUIRED``, a value, an ``OfP`` or a ``ByKind``; ``bound``
    is ``None`` (any finite value) or ``"> x"`` / ``">= x"``; ``choices`` are
    the strings the field takes, besides a number unless it is a str field.
    ``when = (name, value)`` makes the field one that its section reads only
    where the field ``name`` resolves to ``value``; given otherwise, it is an
    error rather than ignored.
    """

    typ: type
    default: Any = REQUIRED
    bound: str | None = None
    choices: tuple = ()
    when: tuple | None = None


# every top-level key, for all experiments; which of the sections below each
# one reads is in READS
TOP = {
    "experiment": Field(str, choices=EXPERIMENTS),
    "seed": Field(int, 0, ">= 0"),
    "model": Field(dict),
    "initial": Field(dict, {}),
    "run": Field(dict, {}),
    "output": Field(dict, {}),
    "options": Field(dict, {}),
    "scenarios": Field(list),
}

# the sections of TOP that an experiment reads where not model, initial and
# run; it accepts the others unchecked.  volterra-demo reads none of them, but
# a model given to it is checked all the same.
READS = {"suite": ("scenarios",), "volterra-demo": ()}
SECTIONS = ("model", "initial", "run", "scenarios")

MODEL = {
    "p": Field(float, bound="> 0"),
    "source": Field(dict),
    "functional": Field(dict, {}),
}

_SOURCE = {"h_inf": Field(float, 1.0, "> 0")}
_CUTOFF = Field(float, 1.0, "> 0", when=("kernel", "compact"))
# the fields each source kind takes besides ``kind``
SOURCES = {
    "constant": _SOURCE,
    "kernel_inf": {**_SOURCE, "kernel": Field(str, "log", choices=tuple(NAMED_KERNELS)),
                   "cutoff": _CUTOFF},
    # not log: with kernel_p its tail (1 + p/u)/(1 + u) is not integrable
    "kernel_p": {**_SOURCE, "kernel": Field(str, choices=("compact", "inv_square")),
                 "cutoff": _CUTOFF, "kp": Field(float, OfP(1.0), "> 0")},
}
SOURCE_KIND = Field(str, choices=tuple(SOURCES))

FUNCTIONAL = {
    "q": Field(float, 1.0, "> 0"),
    "eps0": Field(float, 1.0, "> 0"),
    "a": Field(str, "inverse_square", choices=tuple(WEIGHTS)),
    # b = q h(eps0) b_scale, or a number given as b
    "b": Field(float, "h_at_eps0", choices=("h_at_eps0",)),
    "b_scale": Field(float, 1.0, when=("b", "h_at_eps0")),
}

# the fields each initial family takes besides ``family``
INITIALS = {
    "equilibrium": {},
    "wrong_equilibrium": {"p_prime": Field(float, bound="> 0")},
    "scaled_equilibrium": {"factor": Field(float, bound="> 0")},
    "perturbed_equilibrium": {"amplitude": Field(float, 1e-3),
                              "decay": Field(float, 1.0)},
}
FAMILY = Field(str, "equilibrium", choices=tuple(INITIALS))

RUN = {
    "T": Field(float, 10.0, "> 0"),
    "dt": Field(float, OfP(100.0), "> 0"),
    "stride": Field(int, 1, ">= 1"),
}

OUTPUT = {"dir": Field(str, "out")}

OPTIONS = {
    "equilibrium": {
        # a constant source has its equilibrium in closed form, so its gate is tighter
        "tolerance": Field(float, ByKind(constant=1e-10, kernel_inf=1e-6,
                                         kernel_p=1e-6)),
    },
    "simulate-pde": {},
    "simulate-dde": {
        "cross_check_pde": Field(bool, False),
        "equivalence_tol": Field(float, 1e-6),
    },
    "linear-stability": {
        "kernel_grid": Field(int, 400, ">= 2"),
        "contour_omega": Field(float, 50.0, "> 0"),
        "amplitude": Field(float, 1e-3, "> 0"),
    },
    "volterra-demo": {
        "T": Field(float, 10.0, "> 0"),
        "dt": Field(float, 1e-3, "> 0"),
        "gripenberg_T": Field(float, 200.0, "> 0"),
        "gripenberg_dt": Field(float, 0.1, "> 0"),
        "dde_T": Field(float, 100.0, "> 0"),
        "dde_dt": Field(float, 0.02, "> 0"),
    },
    "control-verify": {
        "y": Field(float, 1.0, "> 0"),
        "T": Field(float, 3.0, "> 0"),
        "t": Field(float, 0.0),
        "n_samples": Field(int, 500, ">= 1"),
        "n_histories": Field(int, 200, ">= 1"),
        "margin_tol": Field(float, 1e-6),
    },
    "suite": {
        "workers": Field(int, 4, ">= 1"),
    },
}

_COMPARE = {">": operator.gt, ">=": operator.ge}


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _read(given: dict, name: str, fld: Field, path: str, model: dict):
    """``given[name]`` checked against ``fld``, or when absent its default,
    which an ``OfP`` or ``ByKind`` resolves from the resolved ``model``."""
    where = f"{path}.{name}"
    if name not in given:
        _expect(fld.default is not REQUIRED, where, "required field is missing")
        if isinstance(fld.default, OfP):
            return model["p"] / fld.default
        return fld.default[model["source"]["kind"]] if isinstance(fld.default, ByKind) \
            else fld.default
    val, typ = given[name], fld.typ
    if isinstance(val, str) and val in fld.choices:
        return val
    _expect(not (isinstance(val, str) and fld.choices), where,
            f"must be {'' if typ is str else f'a {typ.__name__} or '}one of "
            f"{', '.join(fld.choices)}, got {val!r}")
    # json gives true/false as bool, an int subclass, and Infinity/NaN as floats
    _expect(not (typ in (int, float) and isinstance(val, bool)), where,
            f"expected {typ.__name__}, got bool")
    if typ is float and isinstance(val, int):
        _expect(abs(val) <= sys.float_info.max, where, "must be finite")
        val = float(val)
    _expect(isinstance(val, typ), where,
            f"expected {typ.__name__}, got {type(val).__name__}")
    _expect(typ is not float or math.isfinite(val), where, f"must be finite, got {val}")
    if fld.bound is not None:
        op, limit = fld.bound.split()
        _expect(_COMPARE[op](val, float(limit)), where, f"must be {fld.bound}, got {val}")
    return val


def _section(given: dict, table: dict, path: str, model: dict, skip=()) -> dict:
    """Every field of ``table`` but ``skip`` read from ``given``, which may
    hold no key that ``table`` does not declare, nor one whose ``when`` the
    resolved section does not meet."""
    for name in given:
        _expect(name in table, f"{path}.{name}",
                f"unknown field; {path} takes {', '.join(table) or 'no fields'}")
    resolved = {name: _read(given, name, fld, path, model)
                for name, fld in table.items() if name not in skip}
    for name in given:
        if table[name].when is not None:
            key, value = table[name].when
            _expect(resolved[key] == value, f"{path}.{name}",
                    f"read only when {key} is {value!r}, not {resolved[key]!r}")
    return resolved


def _variant(given: dict, key: str, fld: Field, tables: dict, path: str,
             model: dict) -> dict:
    """A section whose field ``key``, read first, picks its table."""
    return _section(given, {key: fld, **tables[_read(given, key, fld, path, model)]},
                    path, model)


@dataclass
class Scenario:
    """A validated scenario; ``model_cfg``, ``initial_cfg``, ``run_cfg`` and
    ``options`` are resolved sections, ``raw`` the document as given."""

    experiment: str
    seed: int
    model_cfg: dict
    initial_cfg: dict
    run_cfg: dict
    output_dir: str
    options: dict
    sub_scenarios: list
    raw: dict

    # -- constructors ------------------------------------------------------------

    def build_source(self) -> SourceFn:
        cfg = self.model_cfg["source"]
        kind = cfg["kind"]
        if kind == "constant":
            return SourceFn(kind=kind, h_inf=cfg["h_inf"])
        kernel = compact_kernel(cfg["cutoff"]) if cfg["kernel"] == "compact" \
            else NAMED_KERNELS[cfg["kernel"]]()
        return SourceFn(kind=kind, h_inf=cfg["h_inf"], kernel=kernel,
                        p=cfg["kp"] if kind == "kernel_p" else None)

    def build_functional(self, source: SourceFn) -> FunctionalSpec:
        cfg = self.model_cfg["functional"]
        return canonical_functional(
            source, cfg["q"], cfg["eps0"], cfg["a"],
            None if cfg["b"] == "h_at_eps0" else cfg["b"], cfg["b_scale"])

    def build_model(self) -> Model:
        source = self.build_source()
        return Model(source, self.build_functional(source), self.model_cfg["p"])

    def build_initial(self, model: Model) -> Profile:
        cfg = self.initial_cfg
        family = cfg["family"]
        if family == "equilibrium":
            return model.equilibrium_profile()
        if family == "wrong_equilibrium":
            other = Model(model.source, model.functional, cfg["p_prime"])
            return other.equilibrium_profile()
        if family == "scaled_equilibrium":
            return model.equilibrium_profile().scaled(cfg["factor"])
        amp, decay = cfg["amplitude"], cfg["decay"]  # perturbed_equilibrium
        xp = model.equilibrium_profile()

        def pair(y):
            v, d = xp.pair_eval(y)
            bump = amp * np.exp(-decay * y)
            return v * (1.0 + bump), d * (1.0 + bump) - decay * bump * v

        return Profile(
            value=lambda y: pair(y)[0], deriv=lambda y: pair(y)[1],
            descriptor=f"perturbed-equilibrium(amp={amp:g})", pair=pair)


def validate(doc: Any, path: str = "config") -> Scenario:
    _expect(isinstance(doc, dict), path, "top level must be an object")
    experiment = _read(doc, "experiment", TOP["experiment"], path, {})
    reads = READS.get(experiment, ("model", "initial", "run"))
    if experiment == "volterra-demo" and "model" in doc:
        reads = ("model",)
    top = _section(doc, TOP, path, {},
                   skip=[name for name in SECTIONS if name not in reads])
    seed = top["seed"]
    out_dir = _section(top["output"], OUTPUT, f"{path}.output", {})["dir"]

    model_cfg, initial_cfg, run_cfg, subs = {}, {}, {}, []
    if "scenarios" in reads:
        for i, entry in enumerate(top["scenarios"]):
            where = f"{path}.scenarios[{i}]"
            _expect(isinstance(entry, dict), where, "must be an object")
            subs.append(validate({"seed": seed, "output": {"dir": out_dir}, **entry},
                                 path=where))
    if "model" in reads:
        mpath = f"{path}.model"
        model_cfg = _section(top["model"], MODEL, mpath, {})
        model_cfg["source"] = _variant(model_cfg["source"], "kind", SOURCE_KIND,
                                       SOURCES, f"{mpath}.source", model_cfg)
        model_cfg["functional"] = _section(model_cfg["functional"], FUNCTIONAL,
                                           f"{mpath}.functional", model_cfg)
    if "initial" in reads:
        initial_cfg = _variant(top["initial"], "family", FAMILY, INITIALS,
                               f"{path}.initial", model_cfg)
    if "run" in reads:
        run_cfg = _section(top["run"], RUN, f"{path}.run", model_cfg)
    options = _section(top["options"], OPTIONS[experiment], f"{path}.options",
                       model_cfg)
    if experiment == "control-verify":
        _expect(options["t"] < options["T"], f"{path}.options.t",
                f"must be < options.T = {options['T']}, got {options['t']}")
    return Scenario(experiment=experiment, seed=seed, model_cfg=model_cfg,
                    initial_cfg=initial_cfg, run_cfg=run_cfg, output_dir=out_dir,
                    options=options, sub_scenarios=subs, raw=doc)


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
