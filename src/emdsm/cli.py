"""Command line interface: run experiments, presets, identity checks, and diagnostics."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .checks import VERIFY_KINDS, verify
from .errors import EmdsmError
from .harness import PRESET_NAMES, load_config, preset, run_experiment


def _print_report(report) -> None:
    for entry in report.indices:
        arg = entry["argmax"]
        loc = ", ".join(f"{v:+.4f}" for v in arg["location"])
        line = f"{entry['label']}: argmax ({loc}) value {arg['value']:.4f}, {len(entry['maxima'])} maxima"
        if "off_peak_ratio" in entry:
            line += f", off-peak ratio {entry['off_peak_ratio']:.3f}"
        print(line)
    for stage, seconds in report.stage_seconds.items():
        print(f"stage {stage}: {seconds:.2f} s")
    print(f"outputs: {report.output_files[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="emdsm",
        description="Electromagnetic scattering simulation and direct sampling reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("config", help="path to the configuration file")
    run_p.add_argument("--out", help="override the output directory")

    preset_p = sub.add_parser("preset", help="run a built-in experiment preset")
    preset_p.add_argument("name", choices=PRESET_NAMES)
    preset_p.add_argument("--noise", type=float, default=None, help="relative noise level")
    preset_p.add_argument("--seed", type=int, default=None, help="noise seed")
    preset_p.add_argument("--out", default=None, help="output directory")
    preset_p.add_argument("--sampling-spacing", type=float, default=None)
    preset_p.add_argument("--forward-h", type=float, default=None)
    preset_p.add_argument("--dump-config", action="store_true",
                          help="print the resolved config instead of running")

    verify_p = sub.add_parser("verify", help="run identity and solver checks")
    verify_p.add_argument("kind", choices=VERIFY_KINDS + ("all",))
    verify_p.add_argument("--json", action="store_true", help="print the results as JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            if args.out:
                config = dataclasses.replace(config, output_directory=args.out)
            _print_report(run_experiment(config))
            return 0
        if args.command == "preset":
            config = preset(args.name, noise=args.noise, seed=args.seed, out=args.out,
                            sampling_spacing=args.sampling_spacing, forward_h=args.forward_h)
            if args.dump_config:
                print(json.dumps(config.to_dict(), indent=2))
                return 0
            _print_report(run_experiment(config))
            return 0
        if args.command == "verify":
            kinds = VERIFY_KINDS if args.kind == "all" else (args.kind,)
            results = []
            for kind in kinds:
                result = verify(kind)
                results.append(result)
                if not args.json:
                    for check in result["checks"]:
                        status = "PASS" if check["passed"] else "FAIL"
                        print(f"[{status}] {check['name']}: value={check['value']} threshold={check['threshold']}")
                    print(f"{kind}: {'PASS' if result['passed'] else 'FAIL'} ({result['seconds']:.1f} s)")
            if args.json:
                print(json.dumps(results, indent=2))
            return 0 if all(r["passed"] for r in results) else 1
    except EmdsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
