"""Command-line front end.

Subcommands select the experiment; a JSON scenario config supplies the model
and run parameters.  The subcommand and the flags edit the document before
its one validation (``config.load``), so they pass the schema's checks and
change the config hash:

- the subcommand sets ``experiment``;
- ``--seed`` sets ``seed`` on every experiment; a suite's entries inherit it
  unless they set their own;
- ``--T`` and ``--dt`` set ``run.T`` and ``run.dt`` on simulate-pde,
  simulate-dde and linear-stability, and on each such entry of a suite.
  equilibrium, volterra-demo and control-verify read no ``run``, so the two
  flags are a schema error there, and on a suite with no entry that reads it.

``--out`` only places the outputs, on every experiment and on every entry of a
suite; it enters no hashed document.  Exit codes: 0 all checks passed, 1
schema violation, 2 assertion failure, 3 numeric error.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS as SUBCOMMANDS  # one subcommand per experiment
from .experiments import run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nltransport",
        description="Simulation and verification workbench for a nonlocal "
                    "transport model of coarsening.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", required=True, help="scenario JSON file")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
        cmd.add_argument("--dt", type=float, default=None, help="time step override")
        cmd.add_argument("--T", type=float, default=None, help="horizon override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"out": args.out, "seed": args.seed, "dt": args.dt, "T": args.T,
                 "experiment": args.command}
    code = run_scenario(args.config, overrides)
    return code


if __name__ == "__main__":
    sys.exit(main())
