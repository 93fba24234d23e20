"""
Straightening a translation map into an interval exchange
=========================================================

Reparametrizing the circle by the CDF of an invariant measure turns the
map, restricted to the measure's support, into an interval exchange of
[0, 1): pieces are permuted with no overlap and Lebesgue measure is
preserved.  The construction and all three checks run on exact rationals.
"""

import random
from fractions import Fraction

from itmlib import attractor_measure, induce_iem, verify_iem
from itmlib.catalog import half_collapse, random_itm, rotation
from itmlib.measure import _rigid_pieces

# A rotation is already an exchange of two arcs; the induced map is the
# same rotation, because the invariant measure is Lebesgue.  The induced
# exchange is an Itm, and merged() is its canonical form.
rot = rotation(Fraction(2, 7))
data = induce_iem(rot, attractor_measure(rot))
print("rotation induces:", data.induced)
print("equals rotation by 2/7:",
      data.induced.merged() == rotation(Fraction(2, 7)).merged())

# The half-collapse map is injective on its support, so after the CDF
# change of coordinates nothing moves at all.
hc = half_collapse()
hc_data = induce_iem(hc, attractor_measure(hc))
print("\nhalf-collapse induces:", hc_data.induced)
print("equals the identity:", hc_data.induced.merged() == rotation(0).merged())

# A random rational map: the support may be fragmented, but the induced
# exchange still verifies exactly.
rng = random.Random(5)
s = random_itm(rng, pieces=4, denominator=120)
mu = attractor_measure(s)
rdata = induce_iem(s, mu)
report = verify_iem(rdata.induced)
print("\nrandom map induces", len(rdata.induced.breakpoints), "pieces")
print("piece lengths preserved:", report.lengths_ok)
print("Lebesgue invariant:     ", report.lebesgue_ok)
print("overlap length:         ", report.overlap_length)

# The semi-conjugacy h(x) = mu([0, x]) is certified exactly by one integer
# walk: on the common grid of mu and S, the charts of S are cut into pieces
# that S moves rigidly and on which mu has one weight at x and one at S(x),
# with h summed on integers at both ends.  Each piece where h increases is
# checked exactly, cut where h(x) crosses a chart end of T.  Pieces where h
# is flat carry no mass.
_, _, pieces = _rigid_pieces(s, mu)
print("semi-conjugacy certified:", rdata.failing_cell is None,
      f"({len(pieces)} pieces)")
x = next(p.x for p in rdata.samples if not p.exceptional)
print("example: x =", x, " h(S(x)) =", rdata.h.at(s.evaluate(x).value),
      " T(h(x)) =", rdata.induced.evaluate(rdata.h.at(x)).value)
