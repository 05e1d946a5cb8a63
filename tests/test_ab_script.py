"""The in-process A/B script of the pull-request workflow (``.github/ab.py``),
run on tiny blocks so that a break in it shows here and not only as missing
output of an informational step."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import elko

AB_SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "ab.py"


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", AB_SCRIPT)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_ab_script_compares_a_second_copy_on_each_request(capsys):
    path = list(sys.path)
    try:
        ab = _load_ab()
        ab.SAMPLES, ab.BLOCKS, ab.PER_BLOCK, ab.WARM_UP = (1,), 2, 2, 2
        ab.REPORTS = ((1, 1),)
        copy = ab.load("elko_ab_copy", Path(elko.__file__).parent)
        assert copy is not elko and copy.suite is not elko.suite
        ab.run("copy", copy, elko)
    finally:
        sys.path[:] = path
        for name in [n for n in sys.modules if n.partition(".")[0] in ("elko_ab_copy", "workloads")]:
            del sys.modules[name]
    out = capsys.readouterr().out
    titles = [line for line in out.splitlines() if not line.startswith(" ")]
    # a copy of the same library writes the same report bytes, said first
    assert titles == ["seed 1, 1 samples: byte-identical",
                      "run_suite('all', 1, 1) passes, 2 blocks of 1:",
                      "point-eval requests, 2 blocks of 2:",
                      "spin-one-scan requests, 2 blocks of 2:"]
    assert out.count("  copy: median ") == out.count("  head: median ") == 3
    assert out.count("  head - copy per block: median ") == 3
    # a copy of the same library returns the same bits on point-eval and
    # spin-one-scan, each line under its A/B
    lines = out.splitlines()
    for title in titles[2:]:
        assert lines[lines.index(title) + 4] == "  outputs bit-identical"
    assert out.count("  outputs ") == 2


def test_ab_script_names_the_first_input_whose_outputs_differ(capsys):
    path = list(sys.path)
    try:
        ab = _load_ab()
    finally:
        sys.path[:] = path
        sys.modules.pop("workloads", None)
    same = (lambda x: (x, [np.zeros(2)]), lambda x: (x, [np.zeros(2)]))
    # -0.0 == 0.0 as a value, but not as bits
    signed = (lambda x: (x, [np.zeros(2)]), lambda x: (x, [np.zeros(2) * (-1.0 if x > 1 else 1.0)]))
    ab.compare_bits(dict(zip(("ref", "head"), same)), [1, 2, 3])
    ab.compare_bits(dict(zip(("ref", "head"), signed)), [1, 2, 3])
    assert capsys.readouterr().out.splitlines() == [
        "  outputs bit-identical", "  outputs differ, first at input 2"]


def test_ab_script_says_which_reports_differ(capsys):
    path = list(sys.path)
    try:
        ab = _load_ab()
    finally:
        sys.path[:] = path
        sys.modules.pop("workloads", None)
    ab.REPORTS = ((1, 10), (2, 10))
    ab.compare_reports({"ref": lambda seed, samples: f"{seed} {samples}",
                        "head": lambda seed, samples: f"{seed ** 2} {samples}"})
    assert capsys.readouterr().out.splitlines() == [
        "seed 1, 10 samples: byte-identical", "seed 2, 10 samples: reports differ"]
