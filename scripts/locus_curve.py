#!/usr/bin/env python3
"""Sample the equal-SIR locus of a single relay and mark the joint optimum.

Writes one CSV per interferer power with columns x_m, h_plus_m, h_minus_m and
prints the optimal (x, h, SIR) for each setting.
"""

import argparse
import csv
import math
from pathlib import Path

from uavrelay.channel import ChannelParams, Scenario
from uavrelay.dualhop import locus_sweep, optimal_position


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/locus"))
    parser.add_argument("--d", type=float, default=35.0)
    parser.add_argument("--msi-x", type=float, default=30.0)
    parser.add_argument("--msi-y", type=float, default=30.0)
    parser.add_argument("--samples", type=int, default=400)
    parser.add_argument("--powers", type=float, nargs="+",
                        default=[5.0, 20.0, 80.0])
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    channel = ChannelParams.from_carrier(2.0e9, 10 ** 0.01, 10 ** 2.1)
    for p_msi in args.powers:
        s = Scenario(args.d, args.msi_x, args.msi_y, 1.0, 1.0, p_msi,
                     0.5, 200.0, channel)
        path = args.out / f"locus_pmsi_{p_msi:g}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x_m", "h_plus_m", "h_minus_m"])
            xs = [args.d * i / args.samples for i in range(args.samples + 1)]
            plus, minus = locus_sweep(s, xs)
            for x, *heights in zip(xs, plus.tolist(), minus.tolist()):
                cells = ["" if math.isnan(h) else f"{h:.6f}" for h in heights]
                writer.writerow([f"{x:.6f}", *cells])
        x_opt, h_opt, report = optimal_position(s)
        print(f"p_msi={p_msi:g}W: optimum x={x_opt:.3f} m h={h_opt:.3f} m "
              f"SIR={report.system_sir:.4f} -> {path}")


if __name__ == "__main__":
    main()
