"""Call-count ceilings: the calls ``elko``'s own code issues for one request
(``tests/calls.py``), held at or below the totals in
``data/call-ceilings.json``.  Counts do not depend on the machine's speed,
so a change that adds calls to a request shows here without timing noise.
A change that lowers a count lowers its ceiling; one that raises it says
why in CHANGES.md."""

import itertools
import json
from pathlib import Path

import pytest

import elko
from elko import dynamics as dyn
from elko import kinematics as kin
from elko import operators as ops
from elko import spin_one as s1
from elko import spinors as sp

import calls

CEILINGS = json.loads((Path(__file__).parent / "data" / "call-ceilings.json").read_text())
PACKAGE = Path(elko.__file__).parent


def _assert_within(request, ceiling):
    """The request's count is the same on a second request, and its total of
    Python and C calls is at most the ceiling."""
    request()   # the first request loads what loads on first use
    python, c = calls.count_calls(PACKAGE, request)
    assert calls.count_calls(PACKAGE, request) == (python, c)
    assert python + c <= ceiling


@pytest.mark.parametrize("operator,construction", calls.CONFIGS)
def test_spin_one_scan_request_is_within_its_ceiling(operator, construction):
    """One spin1_conjugacy_scan request, perfbench's, at a fixed momentum."""
    def request():
        s1.spin1_conjugacy_scan(kin.make_momentum(*calls.MOMENTUM), operator, construction)

    _assert_within(request, CEILINGS["spin-one-scan"][f"{operator} {construction}"])


def test_point_eval_request_is_within_its_ceiling():
    """One point-eval request, perfbench's, at the same momentum: every
    spin-1/2 factory, the conjugation of each lambda/rho, Xi, the basis
    transforms, u1, the helicity operator and the coupled residual."""
    conjugation, convention = ops.charge_conjugation(), dyn.FrequencyConvention(+1)
    labels = list(itertools.product(("up", "down"), ("spinorial", "helicity")))

    def request():
        p = kin.make_momentum(*calls.MOMENTUM)
        spinors = [fn(p, kind, index, basis).components for fn in (sp.lambda_spinor, sp.rho_spinor)
                   for kind in ("S", "A") for index, basis in labels]
        dirac = [sp.dirac_spinor(p, sign, index, basis).components
                 for sign in ("particle", "antiparticle") for index, basis in labels]
        return ([conjugation.apply(v) for v in spinors], dirac, ops.xi_matrix(p),
                ops.lambda_basis_transforms(p), ops.u1(p), ops.helicity_operator(p).matrix,
                dyn.coupled_system_residual(p, convention))

    _assert_within(request, CEILINGS["point-eval"])
