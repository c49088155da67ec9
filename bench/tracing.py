"""Outside-in per-layer tracing of one ``nltransport`` command-line run.

Run as a script, this module imports the package, wraps each layer's public
entry points, runs the command line in this process and writes a JSON file of
per-layer metrics:

    python3 bench/tracing.py TRACE_OUT.json -- <nltransport CLI arguments>

Nothing under ``src/`` changes.  A wrapper is installed on every module
attribute of the package that refers to the wrapped function, so names that
callers imported (``dde.reconstruct_profile``, ``experiments.solve``,
``linstab.volterra_solve`` ...) are traced too; methods are wrapped on their
class.  Each call opens a span; a span's self time is its duration minus the
time covered by its traced children.  ``total_s`` counts only the outermost
span of a name, so recursion or nested wrappers are not counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import numpy as np

# (module, attribute or Class.method, span name).  Several targets may share a
# span name; their calls and times add up under it.
TARGETS = (
    ("quadrature", "tail_integral_refined", "quadrature.tail_integral_refined"),
    ("sources", "SourceFn.eval", "sources.eval"),
    ("functionals", "FunctionalSpec.value_from_samples", "functionals"),
    ("functionals", "FunctionalSpec.gradient_from_samples", "functionals"),
    ("functionals", "FunctionalSpec.pair_from_samples", "functionals"),
    ("functionals", "FunctionalSpec.value", "functionals"),
    ("functionals", "FunctionalSpec.gradient", "functionals"),
    ("functionals", "FunctionalSpec.pair_gradient", "functionals"),
    ("functionals", "weighted_norm", "functionals"),
    ("functionals", "weighted_norm_from_samples", "functionals"),
    ("model", "Model.__init__", "model.Model.init"),
    ("model", "Model.rho_from_samples", "model.rho_from_samples"),
    ("model", "Model.equilibrium_A", "model.equilibrium_A"),
    ("pde", "reconstruct_profile", "pde.reconstruct_profile"),
    ("pde", "LagrangianState.step", "pde.step"),
    ("pde", "LagrangianState.refined_samples", "pde.refined_samples"),
    ("dde", "IHistory.step", "dde.step"),
    ("dde", "IHistory.fg_at", "dde.fg_at"),
    ("dde", "F_of_path", "dde.F_of_path"),
    ("linstab", "Linearization.kernel_K", "linstab.kernel_K"),
    ("linstab", "Linearization.laplace_khat", "linstab.laplace_khat"),
    ("linstab", "Linearization.condition_H3", "linstab.condition_H3"),
    ("linstab", "Linearization.linear_evolve", "linstab.linear_evolve"),
    ("volterra", "solve", "volterra.solve"),
    ("volterra", "linear_dde_solve", "volterra.linear_dde_solve"),
    ("volterra", "gripenberg_check", "volterra.gripenberg_check"),
    ("volterra", "reconstruct", "volterra.reconstruct"),
    ("volterra", "resolvent", "volterra.resolvent"),
    ("control", "value_min1infw", "control.value.min1infw"),
    ("control", "value_max01", "control.value.other"),
    ("control", "value_max01w", "control.value.other"),
    ("control", "value_min1inf", "control.value.other"),
    ("control", "CharMap.__init__", "control.CharMap.init"),
    ("control", "CharMap.F", "control.CharMap.F"),
    ("control", "CharMap.invert", "control.CharMap.invert"),
    ("control", "payoff", "control.payoff"),
    ("control", "verification_certificate", "control.verification_certificate"),
    ("control", "extremal_history_certificate",
     "control.extremal_history_certificate"),
    ("config", "load", "config.load"),
    ("experiments", "atomic_write", "experiments.write"),
    ("experiments", "write_json", "experiments.write"),
    ("experiments", "write_csv", "experiments.write"),
)

STEP_SPANS = ("pde.step", "dde.step")

# Per-layer metrics that are work counts, not times: they must repeat exactly
# across two traced runs of one scenario.
COUNT_SUFFIXES = (".calls", ".points", ".ends", ".fp_iters_per_step",
                  ".fp_iters_max", ".contour_points", ".tau_nodes_mean")


class Span:
    __slots__ = ("name", "start", "child", "fp_iters")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0
        self.fp_iters = 0


class Tracer:
    """Spans kept in memory per thread; aggregates per span name."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.step_ms: dict[str, list] = {name: [] for name in STEP_SPANS}
        self.step_iters: dict[str, list] = {name: [] for name in STEP_SPANS}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, measure=None):
        """Return ``fn`` wrapped in a span; ``measure(args, kwargs, result)``
        adds the span's work counters after the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if name == "model.rho_from_samples":
                for span in reversed(stack):
                    if span.name in STEP_SPANS:
                        span.fp_iters += 1
                        break
            span = Span(name, time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(span, end - span.start, stack)
            if measure is not None:
                measure(tracer, args, kwargs, result)
            return result

        return traced

    def _close(self, span: Span, duration: float, stack: list) -> None:
        name = span.name
        outer_names = {s.name for s in stack}
        if stack:
            stack[-1].child += duration
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - span.child
            if name not in outer_names:
                self.total_s[name] = self.total_s.get(name, 0.0) + duration
            if name in STEP_SPANS:
                self.step_ms[name].append(1e3 * duration)
                self.step_iters[name].append(span.fp_iters)
            if name == "pde.refined_samples" and "pde.step" not in outer_names:
                key = "pde.diagnostics_s"
                self.counters[key] = self.counters.get(key, 0.0) + duration
            if name == "volterra.solve" and "volterra.linear_dde_solve" in outer_names:
                key = "volterra.linear_dde_solve.cross_check_s"
                self.counters[key] = self.counters.get(key, 0.0) + duration


# -- work counters measured around single entry points -------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _eval_points(tracer, args, kwargs, result):
    tracer.count("sources.eval.points", np.size(_arg(args, kwargs, 1, "y")))


def _tail_ends(tracer, args, kwargs, result):
    tracer.count("quadrature.tail_integral_refined.ends",
                 np.size(_arg(args, kwargs, 1, "a")))


def _kernel_points(tracer, args, kwargs, result):
    tracer.count("linstab.kernel_K.points", np.size(_arg(args, kwargs, 1, "t")))


def _laplace_points(tracer, args, kwargs, result):
    tracer.count("linstab.laplace_khat.points", np.size(_arg(args, kwargs, 1, "z")))


def _contour_points(tracer, args, kwargs, result):
    tracer.count("linstab.condition_H3.contour_points",
                 result.get("n_contour_points", 0))


def _tau_nodes(pde):
    panel_edges = pde._tau_panel_edges

    def measure(tracer, args, kwargs, result):
        t_nodes = np.asarray(_arg(args, kwargs, 2, "t_nodes"))
        yq = np.asarray(_arg(args, kwargs, 4, "yq"), dtype=float)
        p = _arg(args, kwargs, 5, "p")
        per_panel = kwargs.get("nodes_per_panel",
                               args[7] if len(args) > 7 else 12)
        if len(t_nodes) > 1:
            edges = panel_edges(t_nodes[-1], float(np.min(yq)),
                                t_nodes[1] - t_nodes[0], p)
            tracer.count("pde.reconstruct_profile.tau_nodes",
                         (len(edges) - 1) * per_panel)

    return measure


def install(tracer: Tracer) -> None:
    """Wrap every target on the loaded ``nltransport`` package."""
    import importlib

    import nltransport.cli  # noqa: F401  (imports every layer)

    pkg = {name: mod for name, mod in sys.modules.items()
           if name == "nltransport" or name.startswith("nltransport.")}
    measures = {
        "sources.eval": _eval_points,
        "quadrature.tail_integral_refined": _tail_ends,
        "linstab.kernel_K": _kernel_points,
        "linstab.laplace_khat": _laplace_points,
        "linstab.condition_H3": _contour_points,
        "pde.reconstruct_profile": _tau_nodes(importlib.import_module("nltransport.pde")),
    }
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(f"nltransport.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(span, cls.__dict__[meth],
                                           measures.get(span)))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span, original, measures.get(span))
        patched = 0
        for mod in pkg.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    patched += 1
        if patched == 0:
            raise RuntimeError(f"nltransport.{module_name}.{attr} not found")


def _decile_means(values: list) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    k = max(1, len(values) // 10)
    return float(np.mean(values[:k])), float(np.mean(values[-k:]))


def summary(tracer: Tracer) -> dict:
    """Per-layer metric values (name -> number) from one traced run."""
    calls, self_s, total_s, ctr = (tracer.calls, tracer.self_s, tracer.total_s,
                                   tracer.counters)
    out: dict[str, float] = {}

    def put(metric: str, value) -> None:
        out[metric] = float(value)

    put("quadrature.tail_integral_refined.calls",
        calls.get("quadrature.tail_integral_refined", 0))
    put("quadrature.tail_integral_refined.ends",
        ctr.get("quadrature.tail_integral_refined.ends", 0))
    put("quadrature.tail_integral_refined.self_s",
        self_s.get("quadrature.tail_integral_refined", 0.0))

    points = ctr.get("sources.eval.points", 0)
    put("sources.eval.calls", calls.get("sources.eval", 0))
    put("sources.eval.points", points)
    put("sources.eval.self_s", self_s.get("sources.eval", 0.0))
    put("sources.eval.ns_per_point",
        1e9 * self_s.get("sources.eval", 0.0) / points if points else 0.0)

    put("functionals.calls", calls.get("functionals", 0))
    put("functionals.self_s", self_s.get("functionals", 0.0))

    put("model.Model.init_s", total_s.get("model.Model.init", 0.0))
    for entry in ("rho_from_samples", "equilibrium_A"):
        put(f"model.{entry}.calls", calls.get(f"model.{entry}", 0))
        put(f"model.{entry}.self_s", self_s.get(f"model.{entry}", 0.0))

    for route in ("pde", "dde"):
        span = f"{route}.step"
        steps = calls.get(span, 0)
        iters = tracer.step_iters[span]
        first, last = _decile_means(tracer.step_ms[span])
        put(f"{route}.step.calls", steps)
        put(f"{route}.step.self_s", self_s.get(span, 0.0))
        put(f"{route}.step_ms.first_decile", first)
        put(f"{route}.step_ms.last_decile", last)
        put(f"{route}.fp_iters_per_step", sum(iters) / steps if steps else 0.0)
        if route == "pde":
            put("pde.fp_iters_max", max(iters) if iters else 0)
    recon = calls.get("pde.reconstruct_profile", 0)
    put("pde.reconstruct_profile.calls", recon)
    put("pde.reconstruct_profile.self_s", self_s.get("pde.reconstruct_profile", 0.0))
    put("pde.reconstruct_profile.tau_nodes_mean",
        ctr.get("pde.reconstruct_profile.tau_nodes", 0) / recon if recon else 0.0)
    put("pde.diagnostics_s", ctr.get("pde.diagnostics_s", 0.0))
    put("dde.fg_at.self_s", self_s.get("dde.fg_at", 0.0))
    put("dde.F_of_path.calls", calls.get("dde.F_of_path", 0))
    put("dde.F_of_path.self_s", self_s.get("dde.F_of_path", 0.0))

    put("linstab.kernel_K.calls", calls.get("linstab.kernel_K", 0))
    put("linstab.kernel_K.points", ctr.get("linstab.kernel_K.points", 0))
    put("linstab.kernel_K.self_s", self_s.get("linstab.kernel_K", 0.0))
    put("linstab.laplace_khat.points", ctr.get("linstab.laplace_khat.points", 0))
    put("linstab.laplace_khat.self_s", self_s.get("linstab.laplace_khat", 0.0))
    put("linstab.condition_H3.contour_points",
        ctr.get("linstab.condition_H3.contour_points", 0))
    put("linstab.condition_H3.total_s", total_s.get("linstab.condition_H3", 0.0))
    put("linstab.linear_evolve.total_s", total_s.get("linstab.linear_evolve", 0.0))

    put("volterra.solve.calls", calls.get("volterra.solve", 0))
    put("volterra.solve.self_s", self_s.get("volterra.solve", 0.0))
    put("volterra.linear_dde_solve.self_s",
        self_s.get("volterra.linear_dde_solve", 0.0))
    put("volterra.linear_dde_solve.cross_check_s",
        ctr.get("volterra.linear_dde_solve.cross_check_s", 0.0))
    put("volterra.gripenberg_check.total_s",
        total_s.get("volterra.gripenberg_check", 0.0))
    put("volterra.reconstruct.self_s", self_s.get("volterra.reconstruct", 0.0))
    put("volterra.resolvent.total_s", total_s.get("volterra.resolvent", 0.0))

    put("control.value.min1infw.calls", calls.get("control.value.min1infw", 0))
    put("control.value.min1infw.self_s", self_s.get("control.value.min1infw", 0.0))
    put("control.value.other.self_s", self_s.get("control.value.other", 0.0))
    for entry in ("F", "invert"):
        put(f"control.CharMap.{entry}.calls", calls.get(f"control.CharMap.{entry}", 0))
        put(f"control.CharMap.{entry}.self_s",
            self_s.get(f"control.CharMap.{entry}", 0.0))
    put("control.CharMap.init_s", total_s.get("control.CharMap.init", 0.0))
    put("control.payoff.self_s", self_s.get("control.payoff", 0.0))
    put("control.verification_certificate.total_s",
        total_s.get("control.verification_certificate", 0.0))
    put("control.extremal_history_certificate.total_s",
        total_s.get("control.extremal_history_certificate", 0.0))

    put("config.load.total_s", total_s.get("config.load", 0.0))
    put("experiments.write.total_s", total_s.get("experiments.write", 0.0))
    return out


def main(argv: list) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py TRACE_OUT.json -- <nltransport CLI arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from nltransport.cli import main as cli_main
    code = cli_main(cli_args)
    with open(out_path, "w") as fh:
        json.dump(summary(tracer), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
