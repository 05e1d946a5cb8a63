"""Call-count ceilings: the calls ``elko``'s own code issues for one request
(``tests/calls.py``), held at or below the totals in
``data/call-ceilings.json``.  Counts do not depend on the machine's speed,
so a change that adds calls to a request shows here without timing noise.
A change that lowers a count lowers its ceiling; one that raises it says
why in CHANGES.md."""

import json
from pathlib import Path

import pytest

import elko
from elko import kinematics as kin
from elko import spin_one as s1

import calls

CEILINGS = json.loads((Path(__file__).parent / "data" / "call-ceilings.json").read_text())
PACKAGE = Path(elko.__file__).parent


@pytest.mark.parametrize("operator,construction", calls.CONFIGS)
def test_spin_one_scan_request_is_within_its_ceiling(operator, construction):
    """One spin1_conjugacy_scan request, perfbench's, at a fixed momentum:
    the count is the same on a second request, and its total of Python and
    C calls is at most the ceiling."""
    def request():
        s1.spin1_conjugacy_scan(kin.make_momentum(*calls.MOMENTUM), operator, construction)

    request()   # the first request loads what loads on first use
    python, c = calls.count_calls(PACKAGE, request)
    assert calls.count_calls(PACKAGE, request) == (python, c)
    assert python + c <= CEILINGS["spin-one-scan"][f"{operator} {construction}"]
