#!/usr/bin/env python3
"""Run every scattering preset (exact and 20% noise) and the kernel
diagnostics fig1 and fig2 (exact data only), and summarize the maxima."""

import argparse
import time

import numpy as np

from emdsm import harness

DIAGNOSTICS = ("fig1", "fig2")  # no scattering data, so no noisy variant
EXAMPLES = tuple(name for name in harness.PRESET_NAMES if name not in DIAGNOSTICS)


def runs(names, noise: float, seed: int):
    """(run directory name, preset name, preset noise arguments) of each run:
    <name>_exact and, for a scattering preset, <name>_eps<noise>."""
    for name in names:
        yield f"{name}_exact", name, {}
        if name not in DIAGNOSTICS:
            yield f"{name}_eps{noise:g}", name, {"noise": noise, "seed": seed if noise else None}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/examples", help="output root directory")
    parser.add_argument("--noise", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--skip-3d", action="store_true", help="skip the (slow) 3D preset")
    parser.add_argument("--names", nargs="*", default=None, help="subset of presets to run")
    args = parser.parse_args()

    names = [name for name in args.names or EXAMPLES + DIAGNOSTICS if not (args.skip_3d and name == "example3d")]
    for run, name, noise in runs(names, args.noise, args.seed):
        config = harness.preset(name, out=f"{args.out}/{run}", **noise)
        start = time.time()
        report = harness.run_experiment(config)
        combined = report.indices[-1]
        loc = np.array(combined["argmax"]["location"])
        print(f"{name} [{run.removeprefix(name + '_')}] in {time.time() - start:.1f} s: "
              f"argmax {np.round(loc, 3).tolist()}, "
              f"{len(combined['maxima'])} maxima above half peak")


if __name__ == "__main__":
    main()
