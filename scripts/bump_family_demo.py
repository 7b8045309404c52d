#!/usr/bin/env python3
"""Build the dented-ball lower-bound family and verify its geometry numerically.

Prints the family size (one body per direction of a delta-packing), the dent
depth, the removed volume (closed form vs localized Monte Carlo), and the
certified pairwise Hausdorff distance between two neighboring bodies.
"""

import argparse

import numpy as np

from randhull.estimators import pairwise_hausdorff_certified
from randhull.experiments import (
    build_lower_bound_family,
    bump_volume_defect_exact,
    bump_volume_defect_mc,
)
from randhull.nets import build_net


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--alpha-bump", type=float, default=0.01)
    ap.add_argument("--mc-points", type=int, default=200000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    family = build_lower_bound_family(
        args.d, 1.0, args.delta, args.alpha_bump, packing_seed=args.seed
    )
    bumps = family[1:]
    print(
        f"family: 1 reference ball + {len(bumps)} dented balls "
        f"(d={args.d}, delta={args.delta}, alpha_bump={args.alpha_bump})"
    )
    print(f"dent depth alpha*delta^2 = {bumps[0].dent_depth:.3e}")

    exact = bump_volume_defect_exact(bumps[0])
    mc = bump_volume_defect_mc(bumps[0], args.mc_points, args.seed + 1)
    print(
        f"removed volume: exact {exact:.6e}, Monte Carlo {mc:.6e} "
        f"(rel err {abs(mc / exact - 1.0):.4f})"
    )
    print(f"scaling constant defect/delta^(d+1) = {exact / args.delta ** (args.d + 1):.6f}")

    if len(bumps) >= 2 and args.d <= 3:
        eval_net = build_net(args.d, min(0.05, args.delta / 2.0), seed=args.seed + 2)
        extra = np.vstack([bumps[0].direction, bumps[1].direction])
        net_val, cert = pairwise_hausdorff_certified(
            bumps[0], bumps[1], eval_net, extra
        )
        print(
            f"pairwise Hausdorff (bodies 1,2): net value {net_val:.6e} "
            f"= alpha*delta^2 {args.alpha_bump * args.delta ** 2:.6e}, "
            f"certified upper bound {cert:.3e}"
        )


if __name__ == "__main__":
    main()
