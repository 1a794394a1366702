"""Run any application from the command line.

Examples::

    python -m repro.apps stencil   --mode na -P 8 --rows 256 --cols 1280
    python -m repro.apps pingpong  --mode mp --size 4096
    python -m repro.apps tree      --mode na -P 64 --arity 16
    python -m repro.apps cholesky  --mode onesided -P 4 --ntiles 8 --verify
    python -m repro.apps particles --mode na -P 8 --steps 6
    python -m repro.apps overlap   --mode na --size 65536
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.apps import (run_cholesky, run_overlap, run_particles,
                        run_pingpong, run_stencil, run_tree_reduction)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="python -m repro.apps",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="app", required=True)

    def common(sp, modes, default_mode):
        sp.add_argument("--mode", choices=modes, default=default_mode)
        sp.add_argument("-P", "--nranks", type=int, default=4)
        sp.add_argument("--json", action="store_true",
                        help="print the raw metrics dict as JSON")

    sp = sub.add_parser("pingpong", help="Figure 3 microbenchmark")
    common(sp, ("mp", "onesided_pscw", "onesided_fence", "na", "na_get",
                "raw"), "na")
    sp.add_argument("--size", type=int, default=64)
    sp.add_argument("--iters", type=int, default=30)
    sp.add_argument("--shm", action="store_true",
                    help="place both ranks on one node")

    sp = sub.add_parser("overlap", help="Figure 4a overlap benchmark")
    common(sp, ("mp", "onesided_fence", "onesided_flush", "na"), "na")
    sp.add_argument("--size", type=int, default=8192)

    sp = sub.add_parser("stencil", help="PRK Sync_p2p (Figures 1/4b)")
    common(sp, ("mp", "na", "pscw", "fence"), "na")
    sp.add_argument("--rows", type=int, default=256)
    sp.add_argument("--cols", type=int, default=1280)
    sp.add_argument("--iters", type=int, default=1)
    sp.add_argument("--verify", action="store_true")

    sp = sub.add_parser("tree", help="reduction tree (Figure 4c)")
    common(sp, ("mp", "pscw", "na", "vendor"), "na")
    sp.add_argument("--arity", type=int, default=16)
    sp.add_argument("--reps", type=int, default=5)

    sp = sub.add_parser("cholesky", help="task Cholesky (Figure 5)")
    common(sp, ("mp", "onesided", "na"), "na")
    sp.add_argument("--ntiles", type=int, default=8)
    sp.add_argument("--tile", type=int, default=32, dest="b")
    sp.add_argument("--variant", choices=("right", "left"),
                    default="right")
    sp.add_argument("--verify", action="store_true")

    sp = sub.add_parser("particles", help="dynamic particle exchange")
    common(sp, ("mp", "na"), "na")
    sp.add_argument("--per-rank", type=int, default=64)
    sp.add_argument("--steps", type=int, default=8)
    sp.add_argument("--verify", action="store_true")
    return p


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.app == "pingpong":
        r = run_pingpong(args.mode, args.size, iters=args.iters,
                         same_node=args.shm)
    elif args.app == "overlap":
        r = run_overlap(args.mode, args.size)
    elif args.app == "stencil":
        r = run_stencil(args.mode, args.nranks, rows=args.rows,
                        cols=args.cols, iters=args.iters,
                        verify=args.verify)
    elif args.app == "tree":
        r = run_tree_reduction(args.mode, args.nranks, arity=args.arity,
                               reps=args.reps)
    elif args.app == "cholesky":
        r = run_cholesky(args.mode, args.nranks, ntiles=args.ntiles,
                         b=args.b, verify=args.verify,
                         variant=args.variant)
    elif args.app == "particles":
        r = run_particles(args.mode, args.nranks, per_rank=args.per_rank,
                          steps=args.steps, verify=args.verify)
    else:  # pragma: no cover - argparse guards
        return 2
    if args.json:
        print(json.dumps(r, default=str, indent=2))
    else:
        for k, v in r.items():
            print(f"{k:22s} {v}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
