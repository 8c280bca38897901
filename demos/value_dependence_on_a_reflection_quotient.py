"""
When the degree depends on the value probed
===========================================

Value independence of the mod-2 degree needs the domain to be free of
codimension-1 singular strata.  The reflection quotient S^1 // Z_2 (a closed
interval) violates that, and the fold map (x, y) -> (x, y^2) normalized shows
the failure concretely: the value (0, 1) has one preimage in the quotient,
the value (0, -1) has none, so the mod-2 degrees are 1 and 0.

The two flat maps, with y-component e^{-1/y^2} and sign(y) e^{-1/y^2}, show
the complementary phenomenon: different equivariance data but literally the
same underlying map on the quotient, hence the same degree at every smooth
regular value.
"""

import math

import numpy as np

from orbidegree import CircleMap, circle_degree2, circle_eval

fold = CircleMap.fold()
top = circle_degree2(fold, math.pi / 2)
bottom = circle_degree2(fold, 3 * math.pi / 2)
print("fold map on the reflection quotient:")
print(f"  value (0, 1):  weighted count {top.weighted_count}, mod-2 degree {top.mod2}, "
      f"preimage angles {top.preimages.angles()}")
print(f"  value (0,-1):  weighted count {bottom.weighted_count}, mod-2 degree {bottom.mod2}")
print("  -> the mod-2 degree depends on the value: the codimension-1 stratum matters")

even, odd = CircleMap.flat_even(), CircleMap.flat_odd()
thetas = np.linspace(0.0, 2 * math.pi, 10_000, endpoint=False)
fold_angles = even.domain.fold
gap = np.max(np.abs(fold_angles(circle_eval(even, thetas)) - fold_angles(circle_eval(odd, thetas))))
print(f"\nflat pair: largest pointwise gap between the underlying maps: {gap:.2e}")

print("sampled smooth regular values: (even count, odd count, mod-2 degrees)")
for value in np.linspace(0.3, math.pi - 0.3, 7):
    a = circle_degree2(even, float(value))
    b = circle_degree2(odd, float(value))
    print(f"  value {value:.3f}: counts ({a.weighted_count}, {b.weighted_count}), "
          f"mod-2 ({a.mod2}, {b.mod2})")
print("  -> identical degrees everywhere, as equal underlying maps require")
