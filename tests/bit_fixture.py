"""The spin-1 bit fixture ``data/spin1-bits.jsonl``: the bits of the spin-1
triplets, lambda/rho pairs and zeta scans on ``conftest.make_bit_rows()``,
recorded once, so that a change to the spin-1 kernels that moves one bit,
a zero sign included, fails ``tests/test_spin_one.py``'s fixture test.

Each line is one JSON array.  The first is the format tag and the rows
(px, py, pz, m); each further line is one record, ``[name, leaves]``, with
the leaves of the value ``spin1_records`` gives the whole batch under that
name, in the order of ``bits.walk``: each leaf its type name, dtype, shape
and values, a float in ``float.hex`` and a complex one as its real and
imaginary parts in turn.  One momentum's values are the batch's rows, so
the batch's records pin both.  Regenerate it from the repository root with

    PYTHONPATH=src python tests/bit_fixture.py tests/data/spin1-bits.jsonl

only for a reason stated with the change, since the file is what pins the
bits.
"""

import itertools
import json
import sys

import numpy as np

from elko import spin_one as s1
from elko.errors import DomainError
from elko.kinematics import FourMomentum, make_momenta

from bits import walk

FORMAT = "spin1-bits v1"
# the (operator, op_phase) of the scan_pairs records
OPERATORS = (("sc", 0.0), ("sc", 0.7), ("g5sc", 0.0), ("g5sc", 0.7))
PAIRS = tuple(itertools.product(("lambda", "rho"), (1, 0, -1)))


def rows_batch(rows):
    """One batch of the (px, py, pz, m) rows."""
    return make_momenta(*np.array(rows).reshape(-1, 4).T)


def spin1_records(p):
    """Name -> value at one momentum or on a batch: the triplets, the pairs,
    ``scan_pairs``' (zeta, residual) under each of ``OPERATORS`` and the
    numeric fields of ``spin1_conjugacy_scan`` at op_phase 0.  Each value of
    a batch has one row per momentum, row k that of momentum k: the
    ``scan_pairs`` values are read per row, (2,) at one momentum and (N, 2)
    on a batch."""
    single = isinstance(p, FourMomentum)
    records = {f"triplet h={h}": s1.spin1_helicity_triplet_at(p, h) for h in (1, 0, -1)}
    for construction, h in PAIRS:
        x, y = records[f"pair {construction} h={h}"] = s1.spin1_pair(p, construction, h)
        for operator, phase in OPERATORS:
            op = {"sc": s1.sc_one, "g5sc": s1.gamma5_sc_one}[operator](phase)
            zeta, residual = s1.scan_pairs(*((x[None], y[None]) if single else (x, y)), op)
            records[f"scan_pairs {operator} {phase} {construction} h={h}"] = (
                (zeta[:, 0], residual[:, 0]) if single else (zeta.T, residual.T))
        for operator in ("sc", "g5sc"):
            scan = s1.spin1_conjugacy_scan(p, operator, construction, h)
            records[f"scan {operator} {construction} h={h}"] = (
                scan.self_minimum, scan.anti_minimum, scan.floor_exceeded)
    return records


def _encode(leaf):
    a = np.asarray(leaf)
    values = a.ravel().tolist() if a.dtype.kind == "b" else [
        float.hex(v) for v in np.ascontiguousarray(a).view(a.real.dtype).ravel().tolist()]
    return [type(leaf).__name__, a.dtype.str, list(a.shape), values]


def _decode(dtype, shape, values):
    dtype = np.dtype(dtype)
    a = (np.array(values, dtype=dtype) if dtype.kind == "b" else
         np.array([float.fromhex(v) for v in values], dtype=np.finfo(dtype).dtype).view(dtype))
    return a.reshape(shape)


def write(path, rows):
    """Record ``spin1_records`` of the rows, as one batch, at ``path``."""
    hexed = [[float.hex(float(v)) for v in row] for row in rows]
    lines = [[FORMAT, hexed]] + [[name, [_encode(leaf) for leaf in walk(value)]]
                                 for name, value in spin1_records(rows_batch(rows)).items()]
    with open(path, "w") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)


def read(path):
    """The rows and the batch's records, name -> list of leaf values."""
    with open(path) as fh:
        (tag, hexed), *records = (json.loads(line) for line in fh)
    if tag != FORMAT:
        raise DomainError(f"unsupported bit fixture format {tag!r}")
    rows = [tuple(float.fromhex(v) for v in row) for row in hexed]
    return rows, {name: [_decode(*leaf[1:]) for leaf in leaves] for name, leaves in records}


if __name__ == "__main__":
    from conftest import make_bit_rows

    write(sys.argv[1], make_bit_rows())
