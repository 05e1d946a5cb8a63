import numpy as np
import pytest

from elko import make_momentum


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def random_momenta(rng):
    """Deterministic batch of generic on-shell momenta."""

    def sample(n=20, scale=5.0):
        out = []
        for _ in range(n):
            m = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, scale * m) / max(np.linalg.norm(v), 1e-300)
            out.append(make_momentum(v[0], v[1], v[2], m))
        return out

    return sample
