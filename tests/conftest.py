import math

import numpy as np
import pytest

from elko import make_momentum
from elko import kinematics as kin
from elko import spinors as sp

# the phase configurations under which the spinor factories are pinned
PHASE_CONFIGS = (sp.PhaseConfig(), sp.PhaseConfig(theta_c=0.4, theta1=0.9, theta2=-2.3),
                 sp.PhaseConfig(theta1=1e-300, theta2=math.pi))


def record_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to append each call's positional arguments to
    the list it returns, then run the original."""
    calls, body = [], getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return body(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


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


@pytest.fixture(scope="session")
def bit_rows(edge_rows):
    """The rows on which the spinor factories are pinned bit for bit: the
    edge rows, rows with signed zeros and subnormal components, a few
    generic rows and single rows at rest, on and near the z axis and at
    |p| = 1e6 m."""
    signed = [(1.0, -0.0, 0.0, 1.0), (-0.0, 1.0, -0.0, 0.5), (-1.0, 0.0, -0.0, 1e-3),
              (0.0, -0.0, 3.0, 1e-150), (-0.0, 0.0, -2.5, 0.8)]
    subnormal = [(5e-324, 0.0, 1.5, 1.0), (0.0, 5e-324, -1.5, 2.0), (-5e-324, -0.0, 0.0, 1.0),
                 (1e-310, -1e-310, 1e-300, 1.0), (2.0, -3.0, -1e-320, 0.5),
                 (1e-160, 1e-160, -1e-160, 1e-150)]
    generic = kin.sample_momenta(np.random.default_rng(15), 6)
    single = [(0.0, 0.0, 0.0, 0.7), (0.0, 0.0, 2.5, 0.7), (0.0, -0.0, -2.5, 0.7),
              (2.5 * math.sin(1e-8), 0.0, -2.5 * math.cos(1e-8), 0.7),
              (0.6e6, -0.8e6, 0.0, 1.0), (0.0, -1.5, 0.0, 2.0)]
    return [*edge_rows, *signed, *subnormal,
            *zip(generic.px.tolist(), generic.py.tolist(), generic.pz.tolist(),
                 generic.m.tolist()), *single]
