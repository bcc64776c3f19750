#!/usr/bin/env python3
"""Track band approximants of a layered potential as the level grows.

For each level J the script reports the period, the certified sup-norm tail,
the total bandwidth, and the Hausdorff step to the previous level.  Total
bandwidth typically shrinks as gaps open; that trend is diagnostic output,
not an asserted law.
"""

import argparse
import json

from limitper import (
    chain_make,
    hausdorff_dist,
    sawtooth_potential,
    spectrum_approx,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prefix", default="2", help="comma-separated chain prefix")
    parser.add_argument("--rule", default="2", help="comma-separated cyclic ratios")
    parser.add_argument("--max-level", type=int, default=6)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args()

    chain = chain_make(
        [int(x) for x in args.prefix.split(",")],
        [int(x) for x in args.rule.split(",")] if args.rule else [],
    )
    pot = sawtooth_potential(chain, args.max_level)
    rows = []
    prev = None
    for level in range(1, args.max_level + 1):
        approx = spectrum_approx(pot, level, args.tol)
        step = hausdorff_dist(prev.band_set, approx.band_set) if prev else None
        rows.append(
            {
                "level": level,
                "period": approx.period,
                "tail_bound": approx.tail_bound,
                "bands": len(approx.band_set.intervals),
                "measure": approx.band_set.measure(),
                "hausdorff_step": step,
            }
        )
        prev = approx
    print(json.dumps({"chain": chain.to_json_dict(), "levels": rows}, indent=2))


if __name__ == "__main__":
    main()
