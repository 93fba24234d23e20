"""
Exactly invariant measures on the attractor
===========================================

Once the attractor stabilizes, normalized length on it is an invariant
measure, and invariance can be checked as an identity between rationals
rather than a small float.  This script builds such a measure, inspects
its CDF, and shows which arcs keep their mass under the map.
"""

import random
import tempfile
from pathlib import Path

from itmlib import (
    ArcSet,
    arcset,
    attractor_measure,
    cdf_distance,
    invariance_residual_exact,
    pushforward,
)
from itmlib.catalog import half_collapse, random_itm
from itmlib.measure import Measure
from itmlib.plots import cdf_svg, density_svg

# The half-collapse map folds the circle onto [0, 1/2); its attractor
# measure is twice Lebesgue there, and the residual is exactly zero.
s = half_collapse()
mu = attractor_measure(s)
print("density:", mu.density)
print("invariance residual:", invariance_residual_exact(s, mu))
print("non-atomic:", mu.non_atomic, " total mass:", mu.total_mass)

# Pushing the measure forward through the map reproduces it exactly.
print("pushforward equals mu:", pushforward(s, mu) == mu)

# Arcs carried by the measure keep their mass under the map.  Arcs in the
# massless part do not: the second arc below has image [1/8, 3/8), which
# the measure sees even though the arc itself is invisible.
carried = arcset(("1/8", "1/4"))
print("\nmass of [1/8,3/8):", mu.mass_of(carried),
      "-> image mass:", mu.mass_of(s.image(carried)))
gap = arcset(("5/8", "1/4"))
print("mass of [5/8,7/8):", mu.mass_of(gap),
      "-> image mass:", mu.mass_of(s.image(gap)))

# The same construction on a random rational map, verified the same way.
rng = random.Random(11)
r = random_itm(rng, pieces=3, denominator=64)
nu = attractor_measure(r)
print("\nrandom map:", r)
print("residual:", invariance_residual_exact(r, nu),
      " support:", nu.support())

# CDFs are exact step-linear functions; distances between them are sups
# over finitely many cuts.  Lebesgue vs. the half-collapse measure:
print("\nKolmogorov distance to Lebesgue:",
      cdf_distance(mu, Measure.lebesgue()))
f = mu.cdf()
print("F(1/4) =", f.at("1/4"), " F(3/4) =", f.at("3/4"),
      " quantile(1/2) =", f.quantile("1/2"))

# Plots are generated as standalone SVG text.
with tempfile.TemporaryDirectory(prefix="itmlib-demo-") as tmp:
    work = Path(tmp)
    (work / "03_density.svg").write_text(density_svg(nu), encoding="utf-8")
    (work / "03_cdf.svg").write_text(cdf_svg(mu), encoding="utf-8")
    print("\nwrote", ", ".join(sorted(p.name for p in work.iterdir())))
