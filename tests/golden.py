"""The golden-value file ``data/spinors_golden.txt``: a regression anchor for
the fixed-axis closed forms.

It holds the header line ``spinor-golden v1`` and then one text record per
fixed-axis lambda and rho spinor at each of ``MOMENTA``:

    family kind index px py pz m re0 im0 re1 im1 re2 im2 re3 im3

Regenerate it from the repository root with

    PYTHONPATH=src python tests/golden.py tests/data/spinors_golden.txt
"""

import sys

from elko import spinors as sp
from elko.kinematics import make_momentum

GOLDEN_HEADER = "spinor-golden v1"

# (px, py, pz, m) of the records, in file order
MOMENTA = [
    (0.0, 0.0, 0.0, 2.0),
    (1.0, 2.0, 3.0, 2.0),
    (0.0, 0.0, 1.0, 1.0),
    (3.0, 4.0, 0.0, 0.5),
    (0.0, 0.0, -2.0, 1.0),
]


def golden_records(momenta) -> list[str]:
    """One text record per fixed-axis spinor at each momentum."""
    lines = []
    for p in momenta:
        for family, fn in (("lambda", sp.lambda_spinor), ("rho", sp.rho_spinor)):
            for kind in sp.KINDS_SELF:
                for index in sp.INDICES:
                    comps = fn(p, kind, index).components
                    nums = " ".join(f"{x:.17g}" for c in comps for x in (c.real, c.imag))
                    lines.append(
                        f"{family} {kind} {index} "
                        f"{p.px:.17g} {p.py:.17g} {p.pz:.17g} {p.m:.17g} {nums}"
                    )
    return lines


def write_golden(path, momenta):
    with open(path, "w") as fh:
        fh.write(GOLDEN_HEADER + "\n")
        for line in golden_records(momenta):
            fh.write(line + "\n")


if __name__ == "__main__":
    write_golden(sys.argv[1], [make_momentum(*m) for m in MOMENTA])
