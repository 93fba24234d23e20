import random

import pytest
from hypothesis import HealthCheck, settings

from itmlib.catalog import random_itm

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
