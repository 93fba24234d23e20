"""
Attractors of interval translation maps
=======================================

An interval translation map slides each piece of a partition rigidly, so
images of the full circle can only shrink.  Iterating the image produces
a nested chain; when the chain stabilizes, the map is of finite type and
the attractor is a finite union of arcs.  With rational data everything
here is decided exactly, not numerically.
"""

import random
from fractions import Fraction

from itmlib import ArcSet, CirclePoint, itm
from itmlib.catalog import half_collapse, random_itm, two_shift_example

# Two pieces, shifts 1/3 and 1/4: one application already loses length.
s = itm(["0", "1/2"], ["1/3", "1/4"])
print("map:", s)
print("image of the circle:", s.image(ArcSet.full()))
print("lost length:", 1 - s.image(ArcSet.full()).total_length)

# Images and preimages are exact set computations.
target = ArcSet((s.piece(0).translate(s.shifts[0]),))
print("\npreimage of", target, "is", s.preimage(target))

# Evaluation is a plain exact shift of the containing piece.
x = CirclePoint(Fraction(3, 4))
print("S(3/4) =", s.evaluate(x))

# The attractor iteration stops as soon as two successive images agree.
result = s.attractor()
print("\nfinite type:", result.finite_type.value)
print("stabilized at step:", result.stabilized_at)
print("attractor:", result.attractor)

# The classic two-piece contraction collapses onto half the circle in one
# step, while random rational maps stabilize after a short transient.
print("\nhalf-collapse attractor:", half_collapse().attractor().attractor)

rng = random.Random(7)
r = random_itm(rng, pieces=4, denominator=97)
res = r.attractor()
print("random map over 97ths stabilized at", res.stabilized_at,
      "with", len(res.attractor), "arcs of total length",
      res.attractor.total_length)

# Homtervals are the open gaps between backward orbits of the breakpoints:
# on them every iterate is continuous.  For a map with periodic domains
# the classifier resolves each homterval to its exact preperiod and period.
ts = two_shift_example()
report = ts.classify_homtervals(depth=8)
print("\ntwo-shift example:", report.genericity.value)
for h in report.homtervals[:3]:
    print("  homterval", h.arc, "preperiod", h.preperiod, "period", h.period)
