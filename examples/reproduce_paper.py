#!/usr/bin/env python
"""Reproduce every figure of the paper in one run.

Drives the other example scripts in sequence and finishes with a
summary of the paper's quantitative claims versus what this run
measured.  SVG "screenshots" for Figures 1 through 9 land in
``examples/output/``.

Run:  python examples/reproduce_paper.py [--full]

``--full`` runs the Grid'5000 case study at the paper's 2170-host scale
(a few seconds of simulation); the default uses the reduced grid.
"""

import argparse
import importlib.util
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(name):
    spec = importlib.util.spec_from_file_location(name, HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def banner(text):
    print("\n" + "=" * 72)
    print(text)
    print("=" * 72)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="2170-host Grid'5000 scale for Fig. 8/9")
    args = parser.parse_args()
    started = time.time()

    banner("Figures 1-3: mapping, temporal and spatial aggregation")
    load("quickstart").main()

    banner("Figures 6-7: NAS-DT deployments (the ~20% claim)")
    load("nasdt_deployment_study").main()

    banner("Figures 8-9: Grid'5000 competing master-workers")
    grid = load("grid_masterworker")
    sys.argv = ["grid_masterworker"] + (["--full"] if args.full else [])
    grid.main()

    banner("Figure 5: interactive layout parameters")
    load("interactive_layout").main()

    banner("Extensions: anomaly scan, statistics, drill-down (Sec. 6)")
    load("anomaly_hunt").main()

    banner("Beyond the paper: collectives on a fat-tree, four views")
    load("fattree_collectives").main()

    banner("Interop: Paje format round-trip")
    load("paje_interop").main()

    elapsed = time.time() - started
    print(f"\nAll figures reproduced in {elapsed:.0f}s. "
          f"SVGs in {HERE / 'output'}; numeric series in "
          f"benchmarks/results/ after `pytest benchmarks/`; "
          f"speed claims gated by `python -m repro bench`.")


if __name__ == "__main__":
    main()
