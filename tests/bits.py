"""One rule for "the same bits", shared by the tests and ``.github/ab.py``.

A value is walked through tuples, lists and dataclasses to its leaves, the
arrays and scalars.  Two values have the same bits when their leaves, in
order, have the same type names, dtypes, shapes and bytes: the bytes carry
the zero signs, the dtype the precision and the type name the kind (a
Python ``float`` is not an ``np.float64``).  In the row form, row k of each
leaf of a batched result has the dtype, shape and bytes of the k-th
one-momentum result's leaf; a row of an array has no type of its own.
"""

import dataclasses

import numpy as np


def walk(value):
    """The leaves of ``value``, in order."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from walk(getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from walk(item)
    else:
        yield value


def leaves(value):
    """Each leaf's type name, dtype, shape and bytes, in order."""
    arrays = [(type(leaf).__name__, np.asarray(leaf)) for leaf in walk(value)]
    return [(name, a.dtype.str, a.shape, a.tobytes()) for name, a in arrays]


def _assert_match(got, want, where=""):
    assert len(got) == len(want), f"{where}{len(got)} leaves, want {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{where}leaf {i}: {g[:-1]}, want {w[:-1]}" + (
            "; the bytes differ" if g[:-1] == w[:-1] else "")


def assert_same_bits(got, want):
    """``got`` has the leaves of ``want``."""
    _assert_match(leaves(got), leaves(want))


def assert_rows_same_bits(batched, singles):
    """Row k of every leaf of ``batched`` is the k-th of ``singles``."""
    columns = [np.asarray(leaf) for leaf in walk(batched)]
    singles = list(singles)
    for column in columns:
        assert column.shape[:1] == (len(singles),), f"{column.shape}, want {len(singles)} rows"
    for k, single in enumerate(singles):
        _assert_match([key[1:] for key in leaves([column[k] for column in columns])],
                      [key[1:] for key in leaves(single)], f"row {k}: ")
