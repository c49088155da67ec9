"""Benchmark of the ``nltransport`` command line, end to end and per layer.

    python3 bench/run.py --workload {transport,linear,control} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The benchmark writes the workload's
scenario for ``(workload, seed)`` under ``bench/_work/`` and runs the program
from ``src/`` in fresh interpreters, exactly as a user runs the CLI.

``--trace 0`` runs the CLI until ``--seconds`` are used (at least three
runs), times three set-ups in fresh processes between them, checks every run's
outputs and prints the end-to-end metrics.  ``--trace 1`` runs the CLI
untraced, traced, untraced, traced, whatever ``--seconds`` says; it checks
that tracing leaves every output file unchanged and the work counts repeat,
and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the versions and the scenario.  README.md beside this
file describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from tracing import COUNT_SUFFIXES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
MIN_RUNS = 3
DEADLINE_S = 170.0  # children are killed by then: a run must end within 180 s
WALL_TIME_FIELD = re.compile(r'"wall_time_s": [-+0-9.eE]+')


def timed_process(argv: list, log_path: Path, deadline: float) -> dict:
    """Run argv to completion; wall from spawn to exit, rusage of the child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # wait4 reaped it
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def check_outputs(out_dir: Path, check, scenario: dict) -> tuple[list, bool]:
    """Reasons the run's report fails its gates, and whether it is strict JSON.

    The report is parsed with Python's lenient ``json``, which accepts the
    ``NaN`` that ``simulate-dde`` writes; strictness is reported separately so
    that defect stays visible.
    """
    path = out_dir / "report.json"
    try:
        text = path.read_text()
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        return [f"report.json does not parse: {exc}"], False
    try:
        json.loads(text, parse_constant=_reject_constant)
        strict = True
    except ValueError:
        strict = False
    return check(report, scenario), strict


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def output_files(out_dir: Path) -> dict:
    """Every output file's bytes, with report.json's wall_time_s masked."""
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "report.json":
                data = WALL_TIME_FIELD.sub('"wall_time_s": _', data.decode()).encode()
            files[str(path.relative_to(out_dir))] = data
    return files


def environment(workload: str, seed: int) -> dict:
    env = {"workload": workload, "seed": seed,
           "nproc": os.cpu_count(),
           "affinity_cpus": len(os.sched_getaffinity(0)),
           "cpu_model": _cpu_model(), "caches": _cache_sizes(),
           "python": platform.python_version(),
           "git_commit": _git_commit(), "src_sha256": _src_digest()}
    env.update(_numeric_stack())
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nltransport").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _numeric_stack() -> dict:
    """numpy/scipy versions, the BLAS library and its thread count."""
    import ctypes
    from importlib import metadata

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for getter in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": numpy.__version__, "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": threads,
            "thread_env": {k: os.environ[k] for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS") if k in os.environ}}


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.command, make_scenario, self.check = WORKLOADS[workload]
        self.scenario = make_scenario(seed)
        self.work = work
        self.scenario_path = work / "scenario.json"
        self.scenario_path.write_text(json.dumps(self.scenario, indent=1,
                                                 sort_keys=True) + "\n")
        self.deadline = time.perf_counter() + DEADLINE_S
        self.setups: list[dict] = []
        self.runs: list[dict] = []
        self.nonstrict_reports = 0

    def setup(self, tag: str) -> None:
        argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
                self.workload, str(self.scenario_path)]
        res = timed_process(argv, self.work / f"{tag}.log", self.deadline)
        res["tag"] = tag
        res["reasons"] = [] if res["exit"] == 0 else [f"exit code {res['exit']}"]
        self.setups.append(res)

    def cli(self, tag: str, trace_out: Path | None = None) -> dict:
        out_dir = self.work / tag
        args = [self.command, "--config", str(self.scenario_path),
                "--out", str(out_dir)]
        if trace_out is None:
            argv = [sys.executable, "-m", "nltransport.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"),
                    str(trace_out), "--", *args]
        res = timed_process(argv, self.work / f"{tag}.log", self.deadline)
        res["tag"] = tag
        reasons = [] if res["exit"] == 0 else [f"exit code {res['exit']}"]
        if out_dir.exists():
            gate_reasons, strict = check_outputs(out_dir, self.check, self.scenario)
            reasons += gate_reasons
            self.nonstrict_reports += not strict
        else:
            reasons.append("no output directory")
        res["reasons"] = reasons
        self.runs.append(res)
        return res

    def failed(self) -> int:
        return sum(1 for r in self.runs if r["reasons"])


def measure(bench: Bench, seconds: float) -> dict:
    """End-to-end metrics: medians over the set-ups and the CLI runs."""
    bench.setup("warmup")  # compiles bytecode and fills the file cache
    start = time.perf_counter()
    n_setups = 0
    while True:
        # set-ups interleave with the runs, so both sample the same machine load
        if n_setups < SETUP_REPEATS:
            bench.setup(f"setup{n_setups}")
            n_setups += 1
        res = bench.cli(f"run{len(bench.runs)}")
        used = time.perf_counter() - start
        if len(bench.runs) >= MIN_RUNS and used + res["wall_s"] > seconds:
            break
        if bench.deadline - time.perf_counter() < 2.0 * res["wall_s"]:
            break
    for i in range(n_setups, SETUP_REPEATS):
        bench.setup(f"setup{i}")
    runs = bench.runs
    setups = [s["wall_s"] for s in bench.setups if s["tag"] != "warmup"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "pass_frac": 1.0 - bench.failed() / len(runs),
    }


def trace(bench: Bench) -> tuple[dict, list]:
    """Per-layer metrics from two traced runs, checked against untraced ones."""
    traces = []
    for i in range(2):
        bench.cli(f"plain{i}")
        path = bench.work / f"trace{i}.json"
        bench.cli(f"traced{i}", trace_out=path)
        traces.append(json.loads(path.read_text()) if path.exists() else None)
    problems = []
    if None in traces:
        return {}, ["a traced run wrote no trace"]
    reference = output_files(bench.work / "plain0")
    for tag in ("plain1", "traced0", "traced1"):
        if output_files(bench.work / tag) != reference:
            problems.append(f"outputs of {tag} differ from plain0")
    first, second = traces
    for name, value in first.items():
        if name.endswith(COUNT_SUFFIXES) and second.get(name) != value:
            problems.append(f"count {name} differs: {value} vs {second.get(name)}")
    plain = [r["wall_s"] for r in bench.runs if r["tag"].startswith("plain")]
    traced = [r["wall_s"] for r in bench.runs if r["tag"].startswith("traced")]
    metrics = {name: statistics.fmean([first[name], second[name]]) for name in first}
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(plain) - 1.0)
    return metrics, problems


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "nltransport" / "cli.py").is_file():
        print(f"error: no nltransport sources under {SRC}", file=sys.stderr)
        return 2

    work = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    if args.trace:
        metrics, problems = trace(bench)
    else:
        metrics, problems = measure(bench, args.seconds), []
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        problems.append("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for run in bench.setups + bench.runs:
        for reason in run["reasons"]:
            problems.append(f"{run['tag']}: {reason}")

    record = {"environment": environment(args.workload, args.seed),
              "scenario": bench.scenario,
              "setups": bench.setups, "runs": bench.runs,
              "nonstrict_reports": bench.nonstrict_reports,
              "problems": problems}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(bench.runs),
        "failed": bench.failed(),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
