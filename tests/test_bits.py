"""The rule for "the same bits" in ``tests/bits.py``, which every bit-for-bit
assertion of the tests and the output check of ``.github/ab.py`` use."""

import copy

import numpy as np
import pytest

from elko.spin_one import ZetaMinimum

from bits import assert_rows_same_bits, assert_same_bits

_DIFFERENT = {
    "complex64-complex128": (np.ones(2, dtype=np.complex64), np.ones(2, dtype=np.complex128)),
    "complex-float": (1.0 + 0j, 1.0),
    "zero-signs": (0.0, -0.0),
    "float64-float": (np.float64(1.5), 1.5),
    "dataclass-field": (ZetaMinimum(1j, 0.0), ZetaMinimum(1j, -0.0)),
    "lengths": ([1.0, 2.0], [1.0, 2.0, 3.0]),
    "shapes": (np.zeros((2, 1)), np.zeros(2)),
}


@pytest.mark.parametrize("got,want", _DIFFERENT.values(), ids=_DIFFERENT)
def test_values_that_differ_fail_both_ways(got, want):
    for pair in ((got, want), (want, got)):
        with pytest.raises(AssertionError):
            assert_same_bits(*pair)


def test_a_value_has_its_own_bits():
    value = ZetaMinimum((1.0, -0.0, np.float64(2.0)), [np.arange(3.0), 1 + 2j, True, "sc"])
    assert_same_bits(value, copy.deepcopy(value))


_BATCHED = (np.array([0.0, -0.0]), np.array([[1, 2], [3, 4]], dtype=complex))
_SINGLES = [(0.0, np.array([1, 2], dtype=complex)), (-0.0, np.array([3, 4], dtype=complex))]
_DIFFERENT_ROWS = {
    "zero-sign": [_SINGLES[0], (0.0, _SINGLES[1][1])],
    "dtype": [_SINGLES[0], (-0.0, _SINGLES[1][1].astype(np.complex64))],
    "shape": [_SINGLES[0], (-0.0, _SINGLES[1][1][:1])],
    "leaves": [_SINGLES[0], _SINGLES[1][:1]],
    "rows": _SINGLES[:1],
}


def test_rows_are_their_one_momentum_results():
    assert_rows_same_bits(_BATCHED, _SINGLES)
    # a row of a float array is an np.float64; the type names are not compared
    assert_rows_same_bits(_BATCHED[0], [np.float64(0.0), -0.0])


@pytest.mark.parametrize("singles", _DIFFERENT_ROWS.values(), ids=_DIFFERENT_ROWS)
def test_rows_that_differ_fail(singles):
    with pytest.raises(AssertionError):
        assert_rows_same_bits(_BATCHED, singles)
