import math

import numpy as np
import pytest

from elko import make_momentum
from elko import spinors as sp


def assert_same_bits(got, want):
    """Equal shapes, equal values and equal signs of every real and
    imaginary part, zeros included: ``elko eval`` prints a negative zero.
    Test modules import it from here."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


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


@pytest.fixture
def nan_lambda_anti(monkeypatch):
    """NaN in the first row of every batched lambda^A spinor.  Patched at
    ``spinors._components``, the kernel every lambda factory calls, because
    the suite's conjugacy checks hold ``lambda_components`` itself from
    registration.  Arithmetic on the NaN row warns, so callers run under
    ``np.errstate(invalid="ignore", divide="ignore")``."""
    real = sp._components

    def nan_row(family, p, kind, index, basis, cfg):
        out = real(family, p, kind, index, basis, cfg)
        if family == "lambda" and kind == "A" and out.ndim == 2:
            out = out.copy()
            out[0] = np.nan
        return out

    monkeypatch.setattr(sp, "_components", nan_row)


@pytest.fixture(scope="session")
def edge_rows():
    """(px, py, pz, m) rows at the edges of the domain: a rest row, rows
    along +-z, a row 1e-8 rad off -z and |p|/m from 1e3 to 1e12."""
    off = 1e-8   # rad off -z
    rows = [(0.0, 0.0, 0.0, 1.3), (0.0, 0.0, 2.0, 0.7), (0.0, 0.0, -2.0, 0.7),
            (3.0 * math.sin(off), 0.0, -3.0 * math.cos(off), 1.1)]
    for boost in (1e3, 1e6, 1e9, 1e12):
        rows.append((0.48 * boost, -0.6 * boost, 0.64 * boost, 1.0))
    return rows
