"""The in-process A/B script of the pull-request workflow (``.github/ab.py``),
run on tiny blocks so that a break in it shows here and not only as missing
output of an informational step."""

import importlib.util
import sys
from pathlib import Path

import elko

AB_SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "ab.py"


def test_ab_script_compares_a_second_copy_on_each_request(capsys):
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("ab", AB_SCRIPT)
        ab = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ab)
        ab.SAMPLES, ab.BLOCKS, ab.PER_BLOCK, ab.WARM_UP = (1,), 2, 2, 2
        copy = ab.load("elko_ab_copy", Path(elko.__file__).parent)
        assert copy is not elko and copy.suite is not elko.suite
        ab.run("copy", copy, elko)
    finally:
        sys.path[:] = path
        for name in [n for n in sys.modules if n.partition(".")[0] in ("elko_ab_copy", "workloads")]:
            del sys.modules[name]
    out = capsys.readouterr().out
    titles = [line for line in out.splitlines() if not line.startswith(" ")]
    assert titles == ["run_suite('all', 1, 1) passes, 2 blocks of 1:",
                      "point-eval requests, 2 blocks of 2:",
                      "spin-one-scan requests, 2 blocks of 2:"]
    assert out.count("  copy: median ") == out.count("  head: median ") == 3
    assert out.count("  head - copy per block: median ") == 3
