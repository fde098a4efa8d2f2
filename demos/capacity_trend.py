"""Boundary capacity under refinement: the visibility dichotomy in numbers.

For the Koch snowflake the form h(phi) = sum of c |grad phi|^2 with
c = clamp(d)^delta either sees the boundary (delta below the threshold
delta_c = 2 + s - d: capacity stays positive) or loses it (delta above:
capacity of a shrinking collar tends to zero). The relaxed capacity of the
collar {d < k h} is computed on a resolution ladder for one delta on each
side of the threshold, then the collar-integral exponent is estimated as an
independent witness of the same transition.
"""

import numpy as np

from snowcap import (
    koch_snowflake,
    similarity_dimension,
    critical_delta,
    build_grid,
    distance_field,
    capacity_ladder,
    collar_integral,
)


def main():
    lam = 1.0 / 3.0
    s = similarity_dimension(koch_snowflake(lam, 1).system)
    dc = critical_delta(s, 2)
    print(f"koch lam=1/3: s = {s:.6f}, delta_c = {dc:.6f}\n")

    print("relaxed capacity of the collar {d < 8h} (collar shrinks with h):")
    print("resolution      delta=0.5    delta=2.0")
    values = {}
    for res, depth in ((256, 6), (512, 6), (1024, 7)):
        geom = koch_snowflake(lam, depth)
        field = distance_field(geom, build_grid(geom, res))
        row = []
        # one ladder: both deltas solve on the multigrid skeleton of delta 0.5
        ladder = capacity_ladder(field, (0.5, 2.0), 8 * field.grid.h, cg_tol=1e-6)
        for delta, out in zip((0.5, 2.0), ladder):
            values[(delta, res)] = out.value
            row.append(out.value)
        print(f"{res:>10}      {row[0]:>9.5f}    {row[1]:>9.5f}")
    print(
        f"trend 256 -> 1024:  delta=0.5 ratio "
        f"{values[(0.5, 256)] / values[(0.5, 1024)]:.3f} (persists),  "
        f"delta=2.0 ratio {values[(2.0, 256)] / values[(2.0, 1024)]:.3f} (vanishes)\n"
    )

    # the collar integral diverges like tau^(delta - delta_c) below threshold
    geom = koch_snowflake(lam, 7)
    field = distance_field(geom, build_grid(geom, 1024))
    h = field.grid.h
    taus = np.geomspace(8 * h, 64 * h, 7)
    print("collar-integral exponent vs prediction delta - delta_c:")
    for delta in (0.2, 0.5, 0.9):
        vals = [collar_integral(field, delta, (0.0, 0.0), 0.6, t) for t in taus]
        slope = np.polyfit(np.log(taus), np.log(vals), 1)[0]
        print(f"  delta={delta:.1f}   fitted {slope:>7.3f}   predicted {delta - dc:>7.3f}")


if __name__ == "__main__":
    main()
