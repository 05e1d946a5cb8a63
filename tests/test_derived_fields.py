"""A momentum's derived fields are computed once and kept with it.

Each cached field equals its defining expression recomputed, bit for bit,
and is read-only on a batch; a slice, a mask, a row or a parity reflection
is a new momentum object whose fields are its own; and a suite pass computes
the half-angle frame once per momentum object.
"""

import dataclasses
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from elko import kinematics as kin
from elko.suite import run_suite

from bits import assert_rows_same_bits, assert_same_bits, walk
from conftest import record_calls

FIELDS = ("p_r", "p_l", "p_perp2", "p_abs", "half_angles", "boost_norm", "boost_off_diagonal",
          "pattern_diagonal", "helicity_ring")


def _fresh(p):
    """Each field by its defining expression, on a new object with the same
    components (so nothing is read from p's cache)."""
    q = type(p)(p.px, p.py, p.pz, p.m, p.E)
    px, py, pz, m, E = q.px, q.py, q.pz, q.m, q.E
    c, pr, pl = 1.0 / kin._sqrt(2.0 * m * (E + m)), px + 1j * py, px - 1j * py
    return {
        "p_r": px + 1j * py,
        "p_l": px - 1j * py,
        "p_perp2": px * px + py * py,
        "p_abs": kin._sqrt(px * px + py * py + pz * pz),
        "half_angles": kin._half_angles(q),
        "boost_norm": kin._sqrt(2.0 * m * (E + m)),
        "boost_off_diagonal": tuple(np.multiply([c, c, -c, -c], (pr, pl, pr, pl))),
        "pattern_diagonal": (E + pz + m, E - pz + m, 1.0 / (2.0 * kin._sqrt(E + m))),
        "helicity_ring": kin._helicity_ring(*kin._half_angles(q)),
    }


@pytest.fixture(scope="module")
def batch(edge_rows):
    generic = kin.sample_momenta(np.random.default_rng(11), 100)
    edges = np.array(edge_rows).T
    return kin.make_momenta(*(np.concatenate([g, e]) for g, e in zip(
        (generic.px, generic.py, generic.pz, generic.m), edges)))


def _momenta(batch):
    """The batch, each edge row as one momentum, and one generic row."""
    return [batch, *(batch[k] for k in range(100, len(batch))), batch[7]]


def test_each_field_is_its_expression_bit_for_bit(batch):
    for p in _momenta(batch):
        fresh = _fresh(p)
        for name in FIELDS:
            cached = getattr(p, name)
            assert getattr(p, name) is cached, name
            assert_same_bits(cached, fresh[name])


def test_batch_rows_are_the_one_momentum_fields(batch):
    rows = [batch[k] for k in range(len(batch))]
    for name in FIELDS:
        assert_rows_same_bits(getattr(batch, name), [getattr(row, name) for row in rows])


def test_fields_are_read_only(batch):
    for name in FIELDS:
        for x in walk(getattr(batch, name)):
            assert isinstance(x, np.ndarray) and not x.flags.writeable, name
            with pytest.raises(ValueError):
                x[0] = 0.0
    row = batch[100]
    for name in FIELDS:
        assert not any(isinstance(x, np.ndarray) and x.flags.writeable
                       for x in walk(getattr(row, name))), name
    for p in (batch, row):
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.p_abs = 1.0


def test_every_batch_has_read_only_arrays(batch):
    """However a batch is built (either constructor, a slice, a boolean
    mask, an integer array, a parity reflection or the class itself on
    writable arrays), its five arrays are read-only, so no write can leave a
    cached field stale."""
    arrays = [np.array(x) for x in (batch.px, batch.py, batch.pz, batch.m, batch.E)]
    built = [batch, kin.sample_momenta(np.random.default_rng(3), 5),
             kin.as_batch([batch[0], batch[1]]), batch[3:9], batch[batch.pz > 0.0],
             batch[np.array([4, 2, 4])], kin.parity_reflect(batch[3:9]),
             kin.MomentumBatch(*arrays)]
    for p in built:
        assert isinstance(p, kin.MomentumBatch)
        for name in ("px", "py", "pz", "m", "E"):
            x = getattr(p, name)
            assert not x.flags.writeable, name
            with pytest.raises(ValueError):
                x[0] = 100.0


def test_new_momentum_objects_get_their_own_fields(batch):
    for name in FIELDS:   # fill the batch's cache first
        getattr(batch, name)
    derived = [batch[3:9], batch[batch.pz > 0.0], batch[-1], kin.parity_reflect(batch),
               kin.parity_reflect(batch[104])]
    for p in derived:
        fresh = _fresh(p)
        for name in FIELDS:
            assert_same_bits(getattr(p, name), fresh[name])
    reflected = kin.parity_reflect(batch)
    assert np.array_equal(reflected.p_r, -batch.p_r)
    assert np.array_equal(reflected.p_abs, batch.p_abs)
    assert kin.as_batch(batch) is batch


def test_concurrent_first_reads_agree(batch):
    """Each field is a ``functools.cached_property``.  Up to Python 3.11 a
    first read takes the property's lock, so other threads wait for it; from
    3.12 there is no lock, and threads that read a missing field at once may
    each compute it, each storing an equal value.  Eight threads read every
    field of fresh momenta, with a short switch interval; every value read
    is the field's expression, bit for bit."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in (0, 7, 100, 103, 107):
            p = kin.make_momentum(*(float(x[k]) for x in (batch.px, batch.py, batch.pz, batch.m)))
            reads = []
            threads = [threading.Thread(target=lambda: reads.append(
                [getattr(p, name) for name in FIELDS])) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(reads) == len(threads)
            fresh = _fresh(p)
            for values in reads:
                assert_same_bits(values, [fresh[name] for name in FIELDS])
    finally:
        sys.setswitchinterval(interval)


def test_half_angle_frame_is_computed_once_per_momentum_in_a_suite_pass(monkeypatch):
    # the record keeps every momentum alive, so no two share an id
    seen = record_calls(monkeypatch, kin, "_half_angles")
    assert run_suite("all", 1, 100).all_passed
    assert seen
    assert max(Counter(id(args[0]) for args in seen).values()) == 1
