"""Polynomial-time encoding versus brute-force summation.

The layered wavefront never enumerates walks: each depth keeps one vector
per vertex, the exact integer moments sum W^k over walks ending there
(the coefficients of the sum of e^{iWt}), and advances it with one
neighbor-sum and one binomial shift by the vertex-number. Each output
coefficient is rounded once, so the result is bit-identical to summing
e^{iWt} over every enumerated walk.
"""

from hamspec.graph import Graph
from hamspec.grid import grid_intermediate, grid_series
from hamspec.schedule import desk_profile
from hamspec.walk_oracle import oracle_series

FOUR_CLUSTER = Graph(4, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 3)])

profile = desk_profile(4, n_d1=16, c=1)

print("wavefront depth by depth (constant coefficient = number of walks):")
for depth in range(1, 5):
    wires = grid_intermediate(FOUR_CLUSTER, profile, depth)
    counts = [w.coeffs[0].re.to_float() for w in wires]
    print(f"  depth {depth}: walks ending at each vertex = {counts}")
print()

encoded = grid_series(FOUR_CLUSTER, profile)
direct = oracle_series(FOUR_CLUSTER, c=1, m=16, p=profile.p_1)

print("encoded vs direct-sum coefficients (first six):")
for k in range(6):
    e, d = encoded.coeffs[k], direct.coeffs[k]
    print(
        f"  k={k}: encoded {e.re.to_float():+.6e}{e.im.to_float():+.6e}i"
        f"   direct {d.re.to_float():+.6e}{d.im.to_float():+.6e}i"
    )
print()
print("bit-identical:", encoded.bits() == direct.bits())
print()
print("the constant coefficient is the total walk count;")
print("the zero-frequency amplitude buried in it is the path count (12 of 66 here)")
