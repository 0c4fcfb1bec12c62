"""A planar spiral whose attractor is a whole circle, and the chart that
cannot see its center.

f(x) = (2/(r+1)) * R(1) x rotates by one radian and pulls the radius toward
1, so almost every orbit winds onto the unit circle. The rotation angle is
irrational in turns: the omega-limit set is the full circle, sampled denser
and denser, not a periodic orbit.

There is an exact 3d chart (x/r, y/r, (r-1)/r) carrying f to a linear map
(rotation block plus a 1/2-contraction in the third coordinate). But it
divides by r, so the fixed point at the origin is simply not representable.
Pushing the catalog through the chart therefore fails with a domain error
at (0,0) -- the obstruction is structural, not numerical. Away from the
origin the pushforward is clean: the image of the circle's limit set is the
limit set of the image.
"""

import numpy as np

from limitlab import Settings, estimate_omega
from limitlab.catalog import exact_immersion, get_system
from limitlab.errors import DomainError
from limitlab.immersion import collapse_report, omega_alpha_consistency, pushforward_check
from limitlab.limits import catalog_from_seeds

f = get_system("rotation-scaling")
cfg = Settings(tail=2000)

est = estimate_omega(f, [2.0, 0.0], cfg)
radii = np.linalg.norm(est.points, axis=1)
print(f"omega-limit of (2, 0): shape={est.shape}, {len(est.points)} samples,"
      f" radius in [{radii.min():.6f}, {radii.max():.6f}]")
print(f"settled with gap {est.settle_gap:.2e} against tolerance {est.settle_tol:.2e}")

# catalog: the circle from outside and inside, and the origin itself
catalog, skipped = catalog_from_seeds(f, [[0.0, 0.0], [2.0, 0.0]], cfg)
for m in catalog.members:
    r = np.linalg.norm(m.points, axis=1).mean()
    print(f"  {m.label}: {m.shape}, mean radius {r:.3f}")

# pushing the catalog through the chart trips over the origin
pair = exact_immersion("rotation-scaling")
try:
    collapse_report(pair.immersion, catalog, seed=0)
    print("collapse report succeeded?! the origin should have stopped it")
except DomainError as e:
    print(f"collapse refused: {e.reason} at {np.asarray(e.point).ravel()}")

# away from the origin the chart commutes with the dynamics on limit sets
rep = pushforward_check(pair.immersion, f, pair.target, [2.0, 0.0], cfg)
print(f"pushforward of the circle: one-sided gap {rep.one_sided_omega:.2e},"
      f" full Hausdorff {rep.hausdorff_omega:.2e}")
print(f"backward direction: {rep.alpha_status}")

# in the linear target, a point on the invariant circle has the same limit
# set forward and backward (rotation both ways); off the circle the backward
# orbit escapes in the expanding third coordinate and the check is vacuous
on_circle = pair.immersion.apply([[np.cos(0.3), np.sin(0.3)]])[0]
cons = omega_alpha_consistency(pair.target, on_circle, cfg)
print(f"target consistency on the circle: {cons.consistent}"
      f" (hausdorff {cons.hausdorff_distance:.2e} < tol {cons.tolerance:.2e})")
off_circle = pair.immersion.apply([[2.0, 0.0]])[0]
cons2 = omega_alpha_consistency(pair.target, off_circle, cfg)
print(f"target consistency off the circle: {cons2.consistent} ({cons2.detail})")
