"""The array sampler against a frozen copy of the per-draw loop it
replaced.

``kinematics.sample_momenta`` draws its attempts through one helper and does
the arithmetic on whole arrays; ``RunContext.momenta`` and
``classify_cp_action`` both sample through it.  The stream of draws, every
field of every momentum and the resample count must stay what the loop
below gives, bit for bit.
"""

import numpy as np
import pytest

from elko import kinematics as kin
from elko import operators as ops
from elko.kinematics import make_momenta
from elko.suite import RunContext


def _loop_momenta(rng, count, max_beta_scale=10.0):
    """The suite sampler as it was: one momentum per accepted attempt."""
    rows, resamples = [], 0
    while len(rows) < count:
        m = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        pabs = float(rng.uniform(0.0, max_beta_scale * m))
        vec = pabs * direction
        if pabs > 0 and pabs + vec[2] < 1e-6 * pabs:
            resamples += 1
            continue
        rows.append((vec[0], vec[1], vec[2], m))
    return make_momenta(*np.array(rows).reshape(-1, 4).T), resamples


class _MinusZ:
    """A generator whose chosen attempts (counted by their normal draw)
    point along or within 1e-4 rad of -z; every draw still consumes the
    underlying stream."""

    def __init__(self, seed, chosen):
        self._rng = np.random.default_rng(seed)
        self._chosen = set(chosen)
        self._attempt = 0

    def random(self):
        return self._rng.random()

    def uniform(self, lo, hi):
        return self._rng.uniform(lo, hi)

    def normal(self, size):
        g = self._rng.normal(size=size)
        if self._attempt in self._chosen:
            g = np.array([1e-4 * (self._attempt % 2), 0.0, -1.0])
        self._attempt += 1
        return g


def _assert_bit_identical(a, b):
    assert len(a) == len(b)
    for field in ("px", "py", "pz", "m", "E"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


@pytest.mark.parametrize("seed,check_id,n", [
    (1, "spin-half.conjugacy-lambda-self", 1000),
    (2, "spin-one.bare-conjugacy", 20),
    (5, "dynamics.markov", 25),
    (40, "symmetry.cp-elko-image", 1),
    (3, "empty", 0),
])
def test_suite_sampler_matches_the_loop(seed, check_id, n):
    ctx = RunContext(seed=seed, samples=1000)
    expected, resamples = _loop_momenta(ctx.rng(check_id), n)
    _assert_bit_identical(ctx.momenta(check_id, n=n), expected)
    assert ctx.resamples == resamples


@pytest.mark.parametrize("n,chosen", [
    (50, {0, 7, 8, 9, 49}),
    # the refill block itself hits -z, so it takes three blocks
    (30, {3, 4, 30, 31}),
])
def test_suite_sampler_resamples_like_the_loop(monkeypatch, n, chosen):
    ctx = RunContext(seed=9, samples=n)
    expected, resamples = _loop_momenta(_MinusZ(123, chosen), n)
    monkeypatch.setattr(ctx, "rng", lambda check_id: _MinusZ(123, chosen))
    _assert_bit_identical(ctx.momenta("any"), expected)
    assert ctx.resamples == resamples == len(chosen)


@pytest.mark.parametrize("seed,n_momenta", [(1, 1000), (3, 40), (5, 10)])
def test_cp_classification_probes_the_loop_momenta(monkeypatch, seed, n_momenta):
    probed = []

    def recording(rng, n):
        batch, rejected = kin.sample_momenta(rng, n)
        probed.append(batch)
        return batch, rejected

    monkeypatch.setattr(ops, "sample_momenta", recording)
    ops.classify_cp_action("helicity", "elko", seed=seed, n_momenta=n_momenta)
    assert len(probed) == 1
    expected, _ = _loop_momenta(np.random.default_rng(seed), n_momenta)
    _assert_bit_identical(probed[0], expected)
