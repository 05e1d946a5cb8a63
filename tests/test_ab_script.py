"""The A/B script of the pull-request workflow (``.github/ab.py``), run on
tiny blocks so that a break in it shows here and not only as missing output
of an informational step.  Its process runner is stubbed: no test here
starts a process."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import elko

import bits

AB_SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "ab.py"


def _load_ab():
    """The script as a module, with the path entries and the ``workloads``
    module that its imports add taken out again."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("ab", AB_SCRIPT)
        ab = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ab)
    finally:
        sys.path[:] = path
        sys.modules.pop("workloads", None)
    return ab


# what ``python -X importtime`` writes to standard error, in part
IMPORT_LOG = """\
import time: self [us] | cumulative | imported package
import time:      2000 |      60000 | numpy
import time:       400 |        400 |     elko.config
import time:      9000 |       9400 |   elko.kinematics
import time:       900 |      10300 | elko
import time:      4000 |       4000 | elko.cli
"""


def _process_stub(calls, found=None):
    """A stand-in for the ``subprocess`` module that records each command
    (without the interpreter) and its ``PYTHONPATH``, and starts nothing.
    The import check reads ``found``, or the package under ``PYTHONPATH``;
    every process writes ``IMPORT_LOG`` to standard error."""
    def run(command, env=None, **kwargs):
        src = env and env["PYTHONPATH"]
        calls.append((command[1:], src))
        return SimpleNamespace(stdout=found or f"{src}/elko/__init__.py\n", stderr=IMPORT_LOG)

    return SimpleNamespace(run=run)


def test_ab_script_compares_a_second_copy_on_each_request(capsys):
    ab = _load_ab()
    try:
        ab.SAMPLES, ab.BLOCKS, ab.PER_BLOCK, ab.WARM_UP, ab.PROCESSES = (1,), 2, 2, 2, 3
        ab.REPORTS = ((1, 1),)
        ab.subprocess = _process_stub(calls := [])
        copy = ab.load("elko_ab_copy", Path(elko.__file__).parent)
        assert copy is not elko and copy.suite is not elko.suite
        ab.run("copy", copy, elko)
    finally:
        for name in [n for n in sys.modules if n.partition(".")[0] == "elko_ab_copy"]:
            del sys.modules[name]
    out = capsys.readouterr().out
    titles = [line for line in out.splitlines() if not line.startswith(" ")]
    # a copy of the same library writes the same report bytes, said first
    assert titles == ["seed 1, 1 samples: byte-identical",
                      "run_suite('all', 1, 1) passes, 2 blocks of 1:",
                      "point-eval requests, 2 blocks of 2:",
                      "spin-one-scan requests, 2 blocks of 2:",
                      "elko verify --samples 1 processes, 3 blocks of 1:",
                      'python -c "import elko, elko.cli" processes, 3 blocks of 1:',
                      "elko's -X importtime self times, median of 3 processes:"]
    assert out.count("  copy: median ") == out.count("  head: median ") == 5
    assert out.count("  head - copy per block: median ") == 5
    # both sides are the one tree of elko: 2 compiles, 2 import checks,
    # 2 x 3 verify runs, 2 x 3 timed imports and 2 x 3 imports under -X importtime
    src = str(Path(elko.__file__).parents[1])
    assert [command[:2] for command, _ in calls] == (
        [["-m", "compileall"], ["-c", "import elko; print(elko.__file__)"]] * 2
        + [["-m", "elko"]] * 6 + [["-c", "import elko, elko.cli"]] * 6
        + [["-X", "importtime"]] * 6)
    assert [env for _, env in calls] == [None, src] * 2 + [src] * 18
    # a copy of the same library returns the same bits on point-eval and
    # spin-one-scan, each line under its A/B
    lines = out.splitlines()
    for title in titles[2:4]:
        assert lines[lines.index(title) + 4] == "  outputs bit-identical"
    assert out.count("  outputs ") == 2


def test_ab_script_names_the_first_input_whose_outputs_differ(capsys):
    ab = _load_ab()
    same = (lambda x: (x, [np.zeros(2)]), lambda x: (x, [np.zeros(2)]))
    # -0.0 == 0.0 as a value, but not as bits
    signed = (lambda x: (x, [np.zeros(2)]), lambda x: (x, [np.zeros(2) * (-1.0 if x > 1 else 1.0)]))
    assert ab.leaves is bits.leaves   # the tests' rule
    ab.compare_bits(dict(zip(("ref", "head"), same)), [1, 2, 3])
    ab.compare_bits(dict(zip(("ref", "head"), signed)), [1, 2, 3])
    assert capsys.readouterr().out.splitlines() == [
        "  outputs bit-identical", "  outputs differ, first at input 2"]


def test_ab_script_says_which_reports_differ(capsys):
    ab = _load_ab()
    ab.REPORTS = ((1, 10), (2, 10))
    ab.compare_reports({"ref": lambda seed, samples: f"{seed} {samples}",
                        "head": lambda seed, samples: f"{seed ** 2} {samples}"})
    assert capsys.readouterr().out.splitlines() == [
        "seed 1, 10 samples: byte-identical", "seed 2, 10 samples: reports differ"]


def test_ab_script_times_fresh_verify_processes_side_by_side(capsys, tmp_path):
    """Each side compiles and checks its own tree, then both run ``python -m
    elko verify`` on their own ``src``, taking turns going first."""
    ab = _load_ab()
    trees = {"base": tmp_path / "base" / "src", "head": tmp_path / "head" / "src"}
    ab.SAMPLES, ab.PROCESSES = (1000, 100), 2
    ab.subprocess = _process_stub(calls := [])
    ab.compare_processes(trees)
    base, head = str(trees["base"]), str(trees["head"])
    checks = [(["-m", "compileall", "-q", f"{base}/elko"], None),
              (["-c", "import elko; print(elko.__file__)"], base),
              (["-m", "compileall", "-q", f"{head}/elko"], None),
              (["-c", "import elko; print(elko.__file__)"], head)]
    assert calls[:4] == checks
    runs = [(command[command.index("--samples") + 1], env) for command, env in calls[4:12]]
    assert runs == [("1000", base), ("1000", head), ("1000", head), ("1000", base),
                    ("100", base), ("100", head), ("100", head), ("100", base)]
    assert all(command[:8] == ["-m", "elko", "verify", "--suite", "all", "--seed", "1",
                               "--samples"] and command[9] == "--out" for command, _ in calls[4:12])
    # then the bare import, timed and under -X importtime, taking turns too
    imports = [(["-c", "import elko, elko.cli"], side) for side in (base, head, head, base)]
    assert calls[12:] == imports + [(["-X", "importtime", *command], side)
                                    for command, side in imports]
    lines = capsys.readouterr().out.splitlines()
    titles = [line for line in lines if not line.startswith(" ")]
    assert titles == ["elko verify --samples 1000 processes, 2 blocks of 1:",
                      "elko verify --samples 100 processes, 2 blocks of 1:",
                      'python -c "import elko, elko.cli" processes, 2 blocks of 1:',
                      "elko's -X importtime self times, median of 2 processes:"]
    # one row per elko module in the log, then their sum; numpy is not elko's
    assert lines[-5:] == [f"  {name:<16}  base {us:>6} us  head {us:>6} us" for name, us in (
        ("elko", 900), ("elko.cli", 4000), ("elko.config", 400), ("elko.kinematics", 9000),
        ("total", 14300))]


def test_import_self_times_read_elko_modules_alone():
    ab = _load_ab()
    assert ab.import_self_us(IMPORT_LOG + "elkology\nimport time: 7 | 7 | elkotools\n") == {
        "elko": 900, "elko.cli": 4000, "elko.config": 400, "elko.kinematics": 9000}


def test_ab_script_stops_when_a_side_imports_another_tree(tmp_path):
    ab = _load_ab()
    ab.subprocess = _process_stub(calls := [], found=f"{tmp_path}/installed/elko/__init__.py")
    with pytest.raises(SystemExit, match="base imported elko from .*installed"):
        ab.compare_processes({"base": tmp_path / "base" / "src", "head": tmp_path / "src"})
    assert not any(command[:2] == ["-m", "elko"] for command, _ in calls)
