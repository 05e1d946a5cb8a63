"""The momentum sampler: its block layout, pinned byte for byte, and its
array arithmetic against a row-by-row loop over the same draws.

``kinematics.sample_momenta`` draws k attempts as ``random(k)``,
``normal(size=(k, 3))`` and ``random(k)`` and refills the rows it rejects
with one more block of the missing size; ``RunContext.momenta`` and
``classify_cp_action`` both sample through it.  A suite run makes the same
number of generator calls at any sample count.
"""

from collections import Counter

import numpy as np
import pytest

from elko import kinematics as kin
from elko import operators as ops
from elko.kinematics import make_momenta
from elko.suite import RunContext, run_suite


def _loop_momenta(rng, count, max_beta_scale=10.0):
    """The sampler row by row: each block is drawn as the sampler draws it,
    then every attempt in it is accepted or rejected in turn."""
    rows, resamples = [], 0
    while len(rows) < count:
        k = count - len(rows)
        for u, direction, v in zip(rng.random(k), rng.normal(size=(k, 3)), rng.random(k)):
            m = float(np.exp(np.log(0.1) + (np.log(10.0) - np.log(0.1)) * u))
            direction /= np.linalg.norm(direction)
            pabs = float(max_beta_scale * m * v)
            vec = pabs * direction
            if pabs > 0 and pabs + vec[2] < 1e-6 * pabs:
                resamples += 1
                continue
            rows.append((vec[0], vec[1], vec[2], m))
    return make_momenta(*np.array(rows).reshape(-1, 4).T), resamples


class _MinusZ:
    """A generator whose chosen attempts (numbered over all its normal
    draws) point along or within 1e-4 rad of -z; every block is still drawn
    from the underlying stream."""

    def __init__(self, seed, chosen):
        self._rng = np.random.default_rng(seed)
        self._chosen = set(chosen)
        self._attempts = 0

    def random(self, n):
        return self._rng.random(n)

    def normal(self, size):
        g = self._rng.normal(size=size)
        for i in range(len(g)):
            attempt = self._attempts + i
            if attempt in self._chosen:
                g[i] = [1e-4 * (attempt % 2), 0.0, -1.0]
        self._attempts += len(g)
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


# (px, py, pz, m) of the first three rows of sample_momenta(default_rng(seed), 5)
_FROZEN_ROWS = {
    1: [("0x1.f2579f5082555p+1", "-0x1.2bbbae800f2e6p+2", "0x1.4462edcee9ee8p+2",
         "0x1.0e52b8f268e06p+0"),
        ("0x1.157263e79ab6cp+4", "0x1.bfae6ccdf21a1p+3", "0x1.5a1407e54cce6p+0",
         "0x1.fd74f1184b3b4p+2"),
        ("0x1.1b2c4087ae0fap-1", "-0x1.7d73441c62fd7p-1", "-0x1.51852f0945f26p-3",
         "0x1.8dc9244d9e9c1p-3")],
    7: [("-0x1.2370e01e96b0ep+1", "0x1.1ad0bd91bd11dp-3", "0x1.89e2440ea4daap+1",
         "0x1.c77091207b906p+0"),
        ("-0x1.519721dd4c474p+2", "-0x1.a990e37d1b390p+2", "0x1.4ff7f8bf0ac59p+2",
         "0x1.8eaa1d59f34e3p+2"),
        ("0x1.f0ee0972850efp+2", "0x1.258ecce8a1290p+1", "-0x1.43e56adf24de0p+4",
         "0x1.c798f6fc58bcbp+1")],
}


@pytest.mark.parametrize("seed", sorted(_FROZEN_ROWS))
def test_block_layout_is_frozen(seed):
    """Changing how the sampler draws changes every suite residual; this
    pins the layout so that such a change is made on purpose."""
    batch, rejected = kin.sample_momenta(np.random.default_rng(seed), 5)
    rows = [tuple(float(x).hex() for x in (p.px, p.py, p.pz, p.m)) for p in batch[:3]]
    assert rows == _FROZEN_ROWS[seed]
    assert rejected == 0


class _Blocks:
    """A generator stub that hands out fixed blocks in turn and records the
    size asked for each."""

    def __init__(self, *blocks):
        self._blocks = iter(blocks)
        self.calls = []

    def random(self, n):
        self.calls.append(("random", n))
        return next(self._blocks)

    def normal(self, size):
        self.calls.append(("normal", size))
        return next(self._blocks)


def test_rejected_row_is_refilled_by_one_more_block():
    half = np.full(3, 0.5)  # m = 1 and |p| = 5
    stub = _Blocks(half, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -2.0], [3.0, 0.0, 0.0]]), half,
                   half[:1], np.array([[0.0, 0.5, 0.0]]), half[:1])
    batch, rejected = kin.sample_momenta(stub, 3)
    assert stub.calls == [("random", 3), ("normal", (3, 3)), ("random", 3),
                          ("random", 1), ("normal", (1, 3)), ("random", 1)]
    assert rejected == 1
    np.testing.assert_allclose(batch.m, 1.0, rtol=1e-15)
    np.testing.assert_allclose(batch.vec, [[0, 0, 5], [5, 0, 0], [0, 5, 0]], rtol=1e-15)


def test_suite_generator_calls_do_not_grow_with_samples(monkeypatch):
    """Every check draws whole arrays, so a per-draw loop that crept back
    would make the count grow with the sample count."""
    calls = Counter()
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, *args):
            self._rng = default_rng(*args)

        def __getattr__(self, name):
            method = getattr(self._rng, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return counted

    monkeypatch.setattr(np.random, "default_rng", Counting)
    counts = []
    for n in (10, 1000):
        calls.clear()
        run_suite("all", 1, n)
        counts.append(sum(calls.values()))
    assert counts[0] > 0
    assert counts[0] == counts[1]
