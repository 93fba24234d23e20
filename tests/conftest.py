import bisect
import importlib
import random
from fractions import Fraction
from math import ceil, floor, gcd, isqrt
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import oracle
from itmlib.approx import OrderViolation, generate_approximants
from itmlib.catalog import random_itm
from itmlib.circle import Arc, CirclePoint
from itmlib.itm import BudgetExceeded, Itm
from itmlib.piecewise import HitDiscontinuity, from_itm

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def acceptance_sweep_maps():
    """The 100 maps of the acceptance sweep, drawn as tests/test_acceptance.py does."""
    rng = random.Random(20260824)
    maps = []
    for _ in range(100):
        n = rng.randint(2, 5)
        maps.append(random_itm(rng, n, rng.randint(2 * n, 512)))
    return maps


@pytest.fixture(scope="session")
def oracle_sweep_attractors(acceptance_sweep_maps):
    """oracle.attractor of each acceptance-sweep map, with the default budgets."""
    return [oracle.attractor(s) for s in acceptance_sweep_maps]


@pytest.fixture(scope="session")
def criterion_8_orbits():
    """The 50 (map, start) pairs of acceptance criterion 8, in its order.

    Each map is a cast random_itm with 2-4 pieces and q <= 64; each start
    has the prime denominator 999983.
    """
    rng = random.Random(20260824 + 8)
    prime = 999983
    pairs = []
    for _ in range(50):
        n = rng.randint(2, 4)
        t = from_itm(random_itm(rng, n, rng.randint(n, 64)))
        pairs.append((t, Fraction(rng.randrange(1, prime), prime)))
    return pairs


def sqrt_digits(rng: random.Random) -> Fraction:
    """The fractional part of the square root of a random non-square, to 30 digits."""
    while True:
        k = rng.randrange(2, 10**6)
        if isqrt(k) ** 2 != k:
            return Fraction(isqrt(k * 10**60), 10**30) % 1


@pytest.fixture(scope="session")
def approximant_level_maps():
    """Level maps of 2-3 piece irrational targets on Fibonacci bounds 21..377.

    Their common denominators run to tens of bits.
    """
    rng = random.Random(13)
    maps = []
    for i in range(24):
        n = 2 + i % 2
        target = Itm(
            tuple(sorted({sqrt_digits(rng) for _ in range(n)})),
            tuple(sqrt_digits(rng) for _ in range(n)),
        )
        try:
            schedule = generate_approximants(
                target, denominators=(21, 34, 55, 89, 144, 233, 377)
            )
        except OrderViolation:
            continue
        maps.extend(level.map for level in schedule.levels)
    return maps


@pytest.fixture(scope="session")
def approx_targets():
    """Twelve 2-3 piece targets with 30-digit parameters, as the approx bench
    draws them; every third has shift c_0 = t_1 - t_0, so the right orbit of
    t_0 lands on t_1 at once and its relation is harvested and kept."""
    rng = random.Random(21)
    targets = []
    for i in range(12):
        n = 2 + i % 2
        breakpoints = sorted({sqrt_digits(rng) for _ in range(n)})
        shifts = [sqrt_digits(rng) for _ in range(n)]
        if i % 3 == 2:
            shifts[0] = breakpoints[1] - breakpoints[0]
        targets.append(Itm(tuple(breakpoints), tuple(shifts)))
    return targets


def arcs_on(q: int):
    """A strategy for up to five arcs with ends on the grid of 1/q."""
    return st.lists(
        st.builds(
            lambda start, length: Arc(CirclePoint(Fraction(start, q)), Fraction(length, q)),
            st.integers(0, q - 1),
            st.integers(1, q),
        ),
        max_size=5,
    )


@pytest.fixture(scope="session")
def grid_pair_arcs(approximant_level_maps):
    """A strategy for (q, q', arcs on the grid of 1/q, arcs on that of 1/q').

    Sets on the two grids meet on lcm(q, q').  The grids are coprime, or
    one divides the other, or one lies above 2**16, or both are common
    denominators of approximant_level_maps, which run to tens of bits.
    """
    small = st.integers(2, 600)
    levels = sorted({s.common_denominator() for s in approximant_level_maps})
    pairs = st.one_of(
        st.tuples(small, small).filter(lambda p: gcd(*p) == 1),
        st.builds(lambda q, k: (q, k * q), small, st.integers(2, 64)),
        st.tuples(st.integers(2**16 + 1, 2**24), small),
        st.tuples(st.sampled_from(levels), st.sampled_from(levels)),
    )
    return pairs.flatmap(
        lambda p: st.tuples(st.just(p[0]), st.just(p[1]), arcs_on(p[0]), arcs_on(p[1]))
    )


@pytest.fixture
def piece_lookups(monkeypatch):
    """The cells looked up by bisection in itmlib.itm, as a list the test
    reads and clears: the cell walk, the single-cell piece lookup and the
    attractor's lookups in its chart starts and run lists."""
    lookups = []

    def counted(seq, x, *args, **kwargs):
        if isinstance(seq, list):
            lookups.append(x)
        return bisect.bisect_right(seq, x, *args, **kwargs)

    monkeypatch.setattr(
        importlib.import_module("itmlib.itm"), "bisect",
        SimpleNamespace(bisect_right=counted, bisect_left=bisect.bisect_left),
    )
    return lookups


def assert_moves_match(s: Itm, a) -> None:
    """An Itm's image and preimage of an ArcSet give the oracle's sets."""
    f = oracle.Map(s)
    assert s.image(a).segments() == f.image(a.segments())
    assert s.preimage(a).segments() == f.preimage(a.segments())


def outcome(f, *args):
    """("ok", f(*args)), or how the run stopped: ("budget", message, budget,
    value) on a BudgetExceeded, ("hit", step, point) when an orbit meets the
    discontinuity set."""
    try:
        return "ok", f(*args)
    except BudgetExceeded as e:
        return "budget", str(e), e.budget, e.value
    except HitDiscontinuity as e:
        return "hit", e.step, e.point


@st.composite
def rationals(draw, min_value, max_value, max_denominator):
    """Every fraction in [min_value, max_value], both ends included, with
    denominator at most max_denominator: the values of st.fractions with
    the same bounds, drawn as two integers, a denominator d and then a
    numerator in [ceil(min_value d), floor(max_value d)], which costs far
    less of hypothesis's time.  The range must hold an integer, so that
    every d has a numerator."""
    lo, hi = Fraction(min_value), Fraction(max_value)
    d = draw(st.integers(1, max_denominator))
    return Fraction(draw(st.integers(ceil(lo * d), floor(hi * d))), d)


@st.composite
def itms(draw, max_pieces=4, max_denominator=32):
    n = draw(st.integers(1, max_pieces))
    q = rationals(min_value=0, max_value=1, max_denominator=max_denominator)
    bps = draw(st.lists(q.filter(lambda v: v < 1), min_size=n, max_size=n, unique=True))
    shifts = draw(st.lists(q, min_size=n, max_size=n))
    return Itm(tuple(sorted(bps)), tuple(shifts))


@st.composite
def raw_maps(draw, max_pieces=5, max_q=64):
    """Maps drawn as raw integers on a grid, so breakpoints at 0, shifts of
    0, one-piece maps, images ending exactly at 1 and orbits landing on
    breakpoints all come up."""
    q = draw(st.integers(1, max_q))
    starts = sorted(draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=max_pieces)))
    shifts = [draw(st.integers(0, q - 1)) for _ in starts]
    return Itm(tuple(Fraction(b, q) for b in starts), tuple(Fraction(c, q) for c in shifts))
