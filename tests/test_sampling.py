"""The momentum sampler: its block layout, pinned byte for byte, and its
array arithmetic against a row-by-row loop over the same draws.

``kinematics.sample_momenta`` draws n rows as ``random(n)``,
``normal(size=(n, 3))`` and ``random(n)`` and keeps every row, along -z too;
``RunContext.momenta`` and the suite's two cp checks both sample through it.  A
suite run makes the same number of generator calls at any sample count.
"""

from collections import Counter

import numpy as np
import pytest

from elko import kinematics as kin
from elko import operators as ops
from elko.kinematics import make_momenta
from elko.suite import RunContext, run_suite, suite_checks

from bits import assert_same_bits
from conftest import record_calls


def _loop_momenta(rng, count, max_beta_scale=10.0):
    """The sampler row by row over one block drawn as the sampler draws it."""
    rows = []
    for u, direction, v in zip(rng.random(count), rng.normal(size=(count, 3)),
                               rng.random(count)):
        m = float(np.exp(np.log(0.1) + (np.log(10.0) - np.log(0.1)) * u))
        direction /= np.linalg.norm(direction)
        vec = float(max_beta_scale * m * v) * direction
        rows.append((vec[0], vec[1], vec[2], m))
    return make_momenta(*np.array(rows).reshape(-1, 4).T)


class _MinusZ:
    """A generator whose chosen rows (numbered over all its normal draws)
    point along -z (even numbers) or 1e-4 rad from it (odd ones); every
    block is still drawn from the underlying generator."""

    def __init__(self, rng, chosen, tilt=1e-4):
        self._rng = rng
        self._chosen = set(chosen)
        self._tilt = tilt
        self._rows = 0

    def random(self, n):
        return self._rng.random(n)

    def normal(self, size):
        g = self._rng.normal(size=size)
        for i in range(len(g)):
            row = self._rows + i
            if row in self._chosen:
                g[i] = [self._tilt * (row % 2), 0.0, -1.0]
        self._rows += len(g)
        return g


@pytest.mark.parametrize("seed,check_id,n", [
    (1, "spin-half.conjugacy-lambda-self", 1000),
    (2, "spin-one.bare-conjugacy", 20),
    (5, "dynamics.markov", 25),
    (40, "symmetry.cp-elko-image", 1),
    (3, "empty", 0),
])
def test_suite_sampler_matches_the_loop(seed, check_id, n):
    ctx = RunContext(seed=seed, samples=1000)
    expected = _loop_momenta(ctx.rng(check_id), n)
    assert_same_bits(ctx.momenta(check_id, n=n), expected)
    assert ctx.resamples == 0


@pytest.mark.parametrize("n,chosen", [
    (50, {0, 7, 8, 9, 49}),
    (30, {3, 4, 28, 29}),
])
def test_suite_sampler_keeps_minus_z_rows_like_the_loop(monkeypatch, n, chosen):
    ctx = RunContext(seed=9, samples=n)
    expected = _loop_momenta(_MinusZ(np.random.default_rng(123), chosen), n)
    monkeypatch.setattr(ctx, "rng", lambda check_id: _MinusZ(np.random.default_rng(123), chosen))
    batch = ctx.momenta("any")
    assert_same_bits(batch, expected)
    assert ctx.resamples == 0
    rows = sorted(chosen)
    off_axis = np.arctan2(np.hypot(batch.px, batch.py), -batch.pz)[rows]
    np.testing.assert_allclose(off_axis, np.arctan([1e-4 * (row % 2) for row in rows]),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("tilt", [1e-4, 1e-9])
def test_suite_passes_with_rows_next_to_minus_z(monkeypatch, tilt):
    """Rows inside the 1.4 mrad cone the sampler once rejected: rows 1 and
    3 of every momentum draw lie tilt rad from -z.  (Rows on the axis itself
    are kept as well, but there ``u1`` meets its coordinate singularity by
    design.)"""
    sample = kin.sample_momenta
    kept = []

    def near_minus_z(rng, n):
        batch = sample(_MinusZ(rng, {1, 3}, tilt), n)
        off_axis = np.arctan2(np.hypot(batch.px, batch.py), -batch.pz)
        kept.append((int(np.count_nonzero(off_axis < 2 * tilt)), len({1, 3} & set(range(n)))))
        return batch

    monkeypatch.setattr(kin, "sample_momenta", near_minus_z)
    report = run_suite("all", 1, 100)
    assert report.summary == {"total": 60, "passed": 60, "failed": 0}, [
        (c.id, c.status, c.residual) for c in report.checks if c.status != "passed"]
    assert all(found == planted for found, planted in kept)
    assert sum(found for found, _ in kept) > 0


@pytest.mark.parametrize("seed,samples", [(1, 1000), (3, 40), (5, 10)])
def test_cp_classification_probes_the_loop_momenta(monkeypatch, seed, samples):
    """The suite's two cp checks each hand ``classify_cp_action`` the rows
    the loop draws from the run seed's own generator."""
    probed = record_calls(monkeypatch, ops, "classify_cp_action")
    ctx = RunContext(seed, samples)
    for spec in suite_checks("symmetry"):
        if spec.id in ("symmetry.cp-dirac", "symmetry.cp-elko"):
            spec.run(ctx)
    assert len(probed) == 2
    expected = _loop_momenta(np.random.default_rng(seed), samples)
    for q, *_ in probed:
        assert_same_bits(q, expected)


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
    batch = kin.sample_momenta(np.random.default_rng(seed), 5)
    assert_same_bits([(p.px, p.py, p.pz, p.m) for p in batch[:3]],
                     [tuple(map(float.fromhex, row)) for row in _FROZEN_ROWS[seed]])


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
