"""One set-up of a workload in a fresh interpreter; the caller times the process.

    python3 bench/setup_probe.py WORKLOAD SCENARIO.json

Imports the package, loads the scenario, builds the model and the initial
profile, and evaluates ``model.rho`` once, which builds the lazy tail spline.
``linear`` also builds the linearization; ``control`` also builds both payoff
densities and their level maps.  Nothing is written.
"""

from __future__ import annotations

import sys


def main(workload: str, scenario_path: str) -> int:
    import nltransport  # noqa: F401
    from nltransport import config

    scn = config.load(scenario_path)
    if scn.sub_scenarios:
        scn = scn.sub_scenarios[0]
    model = scn.build_model()
    xi0 = scn.build_initial(model)
    model.rho(xi0)
    if workload == "linear":
        from nltransport.linstab import Linearization
        Linearization(model)
    elif workload == "control":
        from nltransport.control import PayoffG
        y = scn.options["y"]
        for g in (PayoffG.from_source_unweighted(model.source, model.p, y),
                  PayoffG.from_source_weighted(model.source, model.p)):
            g.char_map
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
