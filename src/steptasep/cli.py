"""Command-line front end.

One subcommand per run mode; `--config` points at a flat JSON file and the
remaining flags override its fields.  Every mode prints its report as JSON.
`verify` exits nonzero when any suite fails; the other modes exit nonzero
only on errors (a statistical comparison that misses its tolerance is
recorded in the report, not turned into a crash).
"""

import argparse
import json
import sys

from .harness import MODES, RUNNERS, resolve_config


def _u64(text):
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in unsigned 64 bits")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="steptasep",
        description="Tagged-particle statistics of the discrete-time "
                    "parallel-update exclusion process")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run the {mode} mode")
        p.add_argument("--config", help="path to a flat JSON config")
        p.add_argument("--seed", type=_u64, help="master seed (unsigned 64)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--samples", type=int, help="number of samples")
        p.add_argument("--tolerance", type=float,
                       help="acceptance tolerance for comparisons")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.mode, config_path=args.config,
                             seed=args.seed, out=args.out,
                             samples=args.samples, tolerance=args.tolerance)
        report = RUNNERS[cfg.mode](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True, indent=2))
    if cfg.mode == "verify" and not report["pass"]:
        return 1
    return 0
