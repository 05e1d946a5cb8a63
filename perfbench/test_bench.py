"""Self-tests of the benchmark; not part of the library's test suite.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = done.stdout.splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{")
                             else None), done.stdout


def tiny(workload, trace, *extra):
    size = ["--samples", "5"] if workload == "verify-all" else []
    return bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), *size, *extra)


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_names()


def test_smoke_every_workload_prints_exactly_the_listed_metrics():
    for workload in run.WORKLOADS:
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, result, out = tiny(workload, trace)
            assert code == 0, out
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert ({n: m["unit"] for n, m in result["metrics"].items()}
                    == {m["name"]: m["unit"] for m in listed})
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values())


def test_forced_wrong_convention_fails_the_run():
    code, result, out = tiny("verify-all", 0, "--force-convention", "-")
    assert code == 1
    assert result["correct"] is False and 0 < result["failed"] <= result["attempted"]
    frac = float(out.split("failed_frac = ")[1].split()[0])
    assert frac > 0 and abs(frac - result["failed"] / result["attempted"]) < 1e-6


def test_counts_repeat_exactly_for_a_fixed_seed():
    counted = [n for n, unit in run.per_layer_names() if unit == "count"]
    for workload in ("verify-all", "point-eval", "spin-one-scan"):
        first, second = (tiny(workload, 1)[1]["metrics"] for _ in range(2))
        assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"]
                                                           for n in counted}, workload


def test_self_times_sum_to_at_most_the_traced_wall_time():
    for workload in run.WORKLOADS:
        metrics = tiny(workload, 1)[1]["metrics"]
        shares = sum(metrics[f"{layer}.share"]["value"] for layer in run.LAYERS)
        assert 0 < shares <= 1 + 1e-9, workload


def test_tracer_attributes_calls_across_modules_and_uninstalls():
    import elko.spinors as sp
    from elko import kinematics, make_momentum

    original = sp.boost_half_pair
    p = make_momentum(0.3, -0.2, 0.5, 1.1)
    tr = Tracer()
    tr.install()
    try:
        assert sp.boost_half_pair is not original  # the from-import binding
        t0 = time.perf_counter()
        sp.lambda_spinor(p, "S", "up", "helicity")
        sp.lambda_spinor(p, "A", "down")
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    assert sp.boost_half_pair is original and kinematics.boost_half_pair is original
    table = tr.by_name()
    assert table["spinors.lambda_spinor.helicity"]["calls"] == 1
    assert table["spinors.lambda_spinor.spinorial"]["calls"] == 1
    assert table["kinematics.boost_half_pair"]["calls"] == 1
    assert table["kinematics.boost_half"]["calls"] == 2
    assert sum(r["self_s"] for r in table.values()) <= wall
    assert all(parent < sid for sid, _, _, _, parent in tr.spans)


def test_speed_normalisation_is_linear_in_wall_time():
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    whole = sampler.normalise(t0, t1)
    mid = (t0 + t1) / 2
    assert abs(sampler.normalise(t0, mid) + sampler.normalise(mid, t1) - whole) < 1e-12
    assert whole > 0 and len(sampler.durations) >= 5


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, _ = bench("--workload", "point-eval", "--seed", "1", "--seconds", "1",
                            cwd=tmp_path)
    assert code != 0 and result is None
