"""Orbit of the rational line map f(x) = -(3x - 1)/(x - 3).

The map has a pole at x = 3, an attracting fixed point at -1 and a repelling
one at +1. Starting from 0 the orbit has the closed form
    x_k = -(2^k - 1)/(2^k + 1),
which marches monotonically to -1. The interesting part is what happens on
the *other* side of the pole: seeds at x > 3 get thrown far negative on the
first step and end up at -1 too, so the attractor's basin is split by the
pole but still reaches both pieces.

Running backwards (the inverse map has its pole at -3) every regular seed
converges to the repeller at +1 instead.
"""

import numpy as np

from limitlab import Settings, estimate_alpha, estimate_omega, iterate
from limitlab.catalog import exact_immersion, get_system
from limitlab.immersion import conjugacy_residual

f = get_system("mobius")
print("system:", f.name)
print("domain kind:", f.domain.kind, " excluded:", f.domain.excluded.ravel())

# closed form vs the iterator, from the origin
traj = iterate(f, [0.0], 12)
ks = np.arange(13)
closed = -(2.0 ** ks - 1.0) / (2.0 ** ks + 1.0)
print("\n k      iterate         closed form")
for k in range(13):
    print(f"{k:2d}  {traj.points[k, 0]:+.12f}  {closed[k]:+.12f}")
print("max deviation: %.3e" % np.abs(traj.points[:, 0] - closed).max())

# omega-limit sets from both sides of the pole
cfg = Settings()
for x0 in (0.0, 2.9, 3.1, 50.0):
    est = estimate_omega(f, [x0], cfg)
    where = est.points.mean() if est.converged else None
    print(f"omega from {x0:5.1f}: status={est.status:9s} shape={est.shape}"
          f" -> {where if where is None else round(float(where), 9)}")

# and backwards: alpha-limits land on the repeller
for x0 in (0.0, 2.0):
    est = estimate_alpha(f, [x0], cfg)
    print(f"alpha from {x0:5.1f}: shape={est.shape}"
          f" -> {round(float(est.points.mean()), 9)}")

# the map is an exact chart for the halving map y -> y/2: h(x) = (x+1)/(x-1)
# sends f to multiplication by 1/2 on the chart image
ent = exact_immersion("mobius", 0)
rng = np.random.default_rng(0)
samples = f.domain.sample(400, rng, box=[[-5.0, 0.5]])
rep = conjugacy_residual(ent.immersion, f, ent.target, samples)
print(f"\nchart check on {rep.samples_used} samples:"
      f" max |h(f(x)) - A h(x)| = {rep.max_residual:.3e}")
print("target is", ent.target.name, "--", ent.note)
