import lankgc  # noqa: F401  # before numpy, so OpenBLAS runs on the one thread that the CLI and the benchmark use
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
