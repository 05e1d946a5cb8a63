import importlib
import inspect
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from elko import TOLERANCES, make_momentum, suite
from elko import dynamics as dyn
from elko import operators as ops
from elko import spinors as sp
from elko.dynamics import FrequencyConvention
from elko.errors import UsageError
from elko.kinematics import as_batch
from elko.matrices import gamma5
from elko.spinors import BASES
from elko.suite import (
    SUITE_NAMES,
    CheckSpec,
    VerificationReport,
    diff_reports,
    run_suite,
    suite_checks,
)

DATA = Path(__file__).parent / "data"
BENCHMARK_REFERENCE = Path(__file__).parent.parent / "perfbench" / "reference-all.json"
BENCHMARK = Path(__file__).parent.parent / "BENCHMARK.json"


def test_registry_matches_the_frozen_rows():
    """The id, anchor, tolerance and expectation of all 60 checks are
    pinned in check-specs.json, so no row loosens a tolerance or changes
    what a check id means unnoticed."""
    frozen = {row["id"]: row for row in json.loads((DATA / "check-specs.json").read_text())}
    now = {c.id: {"id": c.id, "anchor": c.anchor, "tolerance": c.tolerance,
                  "expectation": c.expectation, "expected_relation": c.expected_relation}
           for c in suite_checks("all")}
    assert len(frozen) == 60
    assert now == frozen


def test_every_registered_check_runs_once_through_its_run_attribute():
    """The benchmark's tracer times each check by rebinding ``run`` on the
    frozen spec in ``_REGISTRY``; a check called some other way would read
    as 0 s."""
    calls = {}
    originals = [(spec, spec.run) for specs in suite._REGISTRY.values() for spec in specs]

    def counting(spec, run):
        def wrapped(ctx):
            calls[spec.id] = calls.get(spec.id, 0) + 1
            return run(ctx)
        return wrapped

    try:
        for spec, run in originals:
            object.__setattr__(spec, "run", counting(spec, run))
        report = run_suite("all", seed=1, samples=2)
    finally:
        for spec, run in originals:
            object.__setattr__(spec, "run", run)
    assert len(originals) == 60
    assert calls == {c.id: 1 for c in report.checks}


def test_registry_anchors_unique_and_nonempty():
    checks = suite_checks("all")
    anchors = [c.anchor for c in checks]
    ids = [c.id for c in checks]
    assert all(anchors)
    assert len(set(anchors)) == len(anchors)
    assert len(set(ids)) == len(ids)
    assert len(checks) >= 30


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes(name):
    report = run_suite(name, seed=1, samples=8)
    failed = [c.id for c in report.checks if c.status != "pass"]
    assert failed == []
    assert report.summary["failed"] == 0
    assert report.summary["total"] == len(report.checks)


def test_unknown_suite_rejected():
    with pytest.raises(UsageError):
        run_suite("nope", seed=1, samples=1)
    with pytest.raises(UsageError):
        run_suite("spin-half", seed=1, samples=0)


def test_reports_are_byte_identical_for_fixed_inputs():
    a = run_suite("spin-half", seed=7, samples=5).to_json()
    b = run_suite("spin-half", seed=7, samples=5).to_json()
    assert a == b


def test_report_json_round_trip():
    report = run_suite("dynamics", seed=2, samples=4)
    clone = VerificationReport.from_json(report.to_json())
    assert clone.to_json() == report.to_json()
    assert clone.suite == "dynamics"
    assert clone.convention == "+"


def test_convention_stable_across_sample_counts():
    small = run_suite("dynamics", seed=1, samples=1)
    large = run_suite("dynamics", seed=1, samples=20)
    assert small.convention == large.convention == "+"


class TestDiffReports:
    def test_identical_runs_diff_empty(self):
        a = run_suite("spin-one", seed=3, samples=3)
        b = run_suite("spin-one", seed=3, samples=3)
        assert diff_reports(a, b) == []

    def test_different_seeds_same_statuses_diff_empty(self):
        a = run_suite("spin-half", seed=1, samples=4)
        b = run_suite("spin-half", seed=2, samples=4)
        assert diff_reports(a, b) == []

    def test_flipped_convention_fixture(self):
        a = run_suite("dynamics", seed=1, samples=3)
        flipped = VerificationReport.from_json(a.to_json())
        flipped.convention = "-"
        for check in flipped.checks:
            if check.id == "dynamics.convention":
                check.constants = dict(check.constants, sign="-")
        assert diff_reports(a, flipped) == ["dynamics.convention"]

    def test_mismatched_suites_rejected(self):
        a = run_suite("spin-half", seed=1, samples=2)
        b = run_suite("dynamics", seed=1, samples=2)
        with pytest.raises(UsageError):
            diff_reports(a, b)

    def test_nested_constant_drift_detected(self):
        a = run_suite("spin-half", seed=1, samples=3)
        mutated = VerificationReport.from_json(a.to_json())
        check = next(c for c in mutated.checks if c.id == "spin-half.parity-spinorial")
        check.constants["coefficients"][0][1] = -1.0
        assert diff_reports(a, mutated) == ["spin-half.parity-spinorial"]

    def test_status_drift_detected(self):
        a = run_suite("spin-half", seed=1, samples=3)
        mutated = VerificationReport.from_json(a.to_json())
        mutated.checks[0].status = "fail"
        assert mutated.checks[0].id in diff_reports(a, mutated)


def test_forced_wrong_convention_fails_dynamics():
    report = run_suite("dynamics", seed=1, samples=3, force_convention="-")
    failed = {c.id for c in report.checks if c.status != "pass"}
    assert "dynamics.coupled-system" in failed
    assert not report.all_passed
    assert report.convention == "-"


class _OneMomentum:
    """A run context that draws the one given momentum for every stream;
    a check that samples on its own (``classify_cp_action``) draws 10."""

    seed, samples = 1, 10

    def __init__(self, p):
        self.batch = as_batch([p])

    def momenta(self, key, n=None):
        return self.batch

    def convention(self):
        return FrequencyConvention(1)


@pytest.mark.parametrize("m", [1e-4, 1e-2, 1.0, 1e2, 1e4])
@pytest.mark.parametrize("boost", [0.0, 10.0])
def test_wrong_convention_is_scale_free(m, boost):
    """The wrong-convention residual has mass dimension 3/2, so the row
    divides it by m max|psi|: 2 at every mass, at rest and at |p| = 10 m.
    Over m alone it is 2 sqrt(m) at rest, below a 0.5 floor for m < 1/16."""
    spec = next(c for c in suite_checks("dynamics") if c.id == "dynamics.wrong-convention")
    p = make_momentum(*(boost * m * np.array([0.36, -0.48, 0.8])), m)
    rows, _ = spec.run(_OneMomentum(p))
    residual = spec.reduce(rows)
    assert spec.passes(residual, {})
    assert residual == pytest.approx(2.0, rel=1e-12)


_AXIS_ROWS = [(x, y, z, 0.9) for x, y, z in itertools.product((0.0, -0.0), (0.0, -0.0),
                                                                (2.0, -2.0))]
_BOOSTED_ROWS = [(*(ratio * 0.7 * np.array(d)), 0.7) for ratio in (1e-3, 1e3, 1e6, 1e12)
                 for d in ((0.48, -0.6, 0.64), (-0.48, 0.6, -0.64), (-0.6, -0.48, 0.64))]


@pytest.mark.parametrize("row", _AXIS_ROWS + _BOOSTED_ROWS)
def test_cp_elko_holds_outside_the_sampled_box(row):
    """The inversion-image rows of ``symmetry.cp-elko`` read both images off
    the helicity factories, so they hold at the check's tolerance on the
    exact +-z axis, with every sign of its zero components, and at
    |p|/m up to 1e12 in both azimuthal half-planes."""
    spec = next(c for c in suite_checks("symmetry") if c.id == "symmetry.cp-elko")
    rows, constants = spec.run(_OneMomentum(make_momentum(*row)))
    assert len(rows) == 4   # commute residual, the two images, separation
    assert spec.passes(spec.reduce(rows), constants)


def test_every_check_returns_its_rows_and_constants():
    """A measurement returns its residual rows unreduced, as a list or a
    tuple, and its constants as a dict; ``CheckSpec.reduce`` folds them."""
    ctx = suite.RunContext(seed=1, samples=2)
    for spec in suite_checks("all"):
        rows, constants = spec.run(ctx)
        assert isinstance(rows, (list, tuple)), spec.id
        assert isinstance(constants, dict), spec.id
        assert isinstance(spec.reduce(rows), float), spec.id


@pytest.mark.parametrize("expect, empty, folded", [
    ("vanish", 0.0, 3.0), ("classify", 0.0, 3.0), ("exceed-floor", math.inf, 0.5)])
def test_reduce_takes_the_largest_entry_or_the_smallest_for_a_floor(expect, empty, folded):
    spec = CheckSpec("spin-half.probe", "a probe", 1.0, expect, None)
    assert spec.reduce([]) == spec.reduce([np.array([])]) == empty
    assert spec.reduce([np.array([1.0, 3.0]), 0.5, [[2.0], [1.5]]]) == folded
    for rows in ([np.array([1.0, math.nan]), 0.5], [0.5, math.nan], [[math.nan], 3.0]):
        residual = spec.reduce(rows)
        assert math.isnan(residual)
        assert not spec.passes(residual, {"relation": None})


# checks that read lambda^A on a batch
_NAN_ROW_CHECKS = ("spin-half.boost-consistency", "spin-half.conjugacy-lambda-anti",
                   "spin-half.helicity-noneigen", "spin-half.parity-spinorial")


def test_a_nan_row_fails_its_checks(nan_lambda_anti):
    """One NaN row fails each check that reads it, the floor
    helicity-noneigen included: a fold by Python's ``max`` or ``min``
    dropped it (``max(0.0, nan)`` is 0.0) and all four passed."""
    with np.errstate(invalid="ignore", divide="ignore"):
        report = run_suite("spin-half", seed=1, samples=50)
    outcomes = {c.id: c for c in report.checks}
    for cid in _NAN_ROW_CHECKS:
        assert outcomes[cid].status == "fail", cid
        assert math.isnan(outcomes[cid].residual), cid


def test_report_schema_fields():
    report = run_suite("spin-half", seed=1, samples=2)
    data = json.loads(report.to_json())
    assert set(data) == {"suite", "seed", "samples", "convention", "resamples",
                         "checks", "summary"}
    for check in data["checks"]:
        assert set(check) == {"id", "anchor", "status", "residual", "samples",
                              "constants"}


def test_raising_check_is_reported_as_error(monkeypatch):
    def broken(ctx):
        raise ZeroDivisionError("division by zero")

    # sorts first, so every real check runs after it
    real = suite.suite_checks("spin-half")
    extra = CheckSpec("spin-half.aa-broken", "a check that raises", 1e-12, "vanish", broken)
    monkeypatch.setattr(suite, "suite_checks", lambda name: real + [extra])
    report = run_suite("spin-half", seed=1, samples=2)
    first = report.checks[0]
    assert (first.id, first.status) == ("spin-half.aa-broken", "error")
    assert math.isnan(first.residual)
    assert first.constants == {"error": "ZeroDivisionError: division by zero"}
    assert [c.status for c in report.checks[1:]] == ["pass"] * len(real)
    assert report.summary == {"total": len(real) + 1, "passed": len(real), "failed": 1}
    assert not report.all_passed
    clone = VerificationReport.from_json(report.to_json())
    assert clone.checks[0].status == "error"


# functions numpy gained in 2.x; the package declares numpy >= 1.24
_NUMPY_2_ONLY = ("vecdot", "matvec", "vecmat", "unstack", "permute_dims", "concat",
                 "matrix_transpose", "cumulative_sum", "cumulative_prod", "astype",
                 "isdtype", "acos", "asin", "atan", "atan2", "pow")
_NUMPY_2_ONLY_LINALG = ("vecdot", "matrix_norm", "vector_norm", "matrix_transpose")


@pytest.fixture
def numpy_floor(monkeypatch):
    """numpy with the names it gained in 2.x deleted."""
    for name in _NUMPY_2_ONLY:
        monkeypatch.delattr(np, name, raising=False)
    for name in _NUMPY_2_ONLY_LINALG:
        monkeypatch.delattr(np.linalg, name, raising=False)


def test_suite_runs_without_numpy_2_functions(numpy_floor):
    report = run_suite("all", seed=1, samples=20)
    assert report.summary == {"total": 60, "passed": 60, "failed": 0}


def test_one_momentum_request_runs_without_numpy_2_functions(numpy_floor):
    """The scalar paths of one point-eval request at a fresh momentum, so
    its frame is derived under the floor too: all 24 spinor factories, C on
    each lambda and rho, Xi, the transforms, u1, both helicity operators
    and the coupled residual."""
    p = make_momentum(0.3, -0.4, 0.5, 1.2)
    tol = TOLERANCES["identity"]
    c_op = ops.charge_conjugation()
    for factory, kind, index, basis in itertools.product(
            (sp.lambda_spinor, sp.rho_spinor), ("S", "A"), sp.INDICES, BASES):
        v = factory(p, kind, index, basis).components
        sign = 1.0 if kind == "S" else -1.0
        assert np.linalg.norm(c_op.apply(v) - sign * v) <= tol * np.linalg.norm(v)
    dirac = [sp.dirac_spinor(p, sign, index, basis).components for sign, index, basis
             in itertools.product(("particle", "antiparticle"), sp.INDICES, BASES)]
    assert np.all(np.isfinite(dirac)) and len(dirac) == 8
    assert ops.xi_matrix(p).shape == (2, 2)
    assert [t.shape for t in ops.lambda_basis_transforms(p)] == [(4, 4)] * 4
    u = ops.u1(p)
    assert np.linalg.norm(u @ u.conj().T - np.eye(4)) <= tol
    h = ops.helicity_operator(p).matrix
    assert np.linalg.norm(h @ h - 0.25 * np.eye(4)) <= tol
    assert np.array_equal(ops.chiral_helicity_operator(p).matrix, -gamma5 @ h)
    assert max(dyn.coupled_system_residual(p, FrequencyConvention(1))) <= tol


def test_no_drift_from_pre_batch_report():
    """A report written before the checks moved onto the batch axis."""
    before = VerificationReport.from_json((DATA / "report-all-seed1-n100.json").read_text())
    now = run_suite("all", seed=1, samples=100)
    assert diff_reports(before, now) == []
    assert now.resamples == before.resamples
    assert [(c.id, c.anchor, c.samples) for c in now.checks] == \
        [(c.id, c.anchor, c.samples) for c in before.checks]
    assert now.summary == before.summary


def test_benchmark_gate_holds():
    """The gate of the verify-all benchmark: seed 1 at 1000 samples passes
    60/60, draws no resample and does not drift from the reference report."""
    reference = VerificationReport.from_json(BENCHMARK_REFERENCE.read_text())
    report = run_suite("all", seed=1, samples=1000)
    assert report.summary == {"total": 60, "passed": 60, "failed": 0}
    assert report.resamples == 0
    assert diff_reports(reference, report) == []


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_other_seeds_report_the_reference_constants(seed):
    """No report constant depends on which momenta are drawn."""
    reference = VerificationReport.from_json(BENCHMARK_REFERENCE.read_text())
    report = run_suite("all", seed=seed, samples=200)
    assert report.summary == {"total": 60, "passed": 60, "failed": 0}
    assert diff_reports(reference, report) == []


# Deleted from the library with no caller left; their metrics are dropped
# at the next change to the benchmark.
_STALE_METRICS = {"kinematics.FourMomentum.angles", "matrices.normalize_intertwiner",
                   "spinors.helicity_lambda_at"}


def test_benchmark_metrics_name_live_code():
    """Each ``<module>.<function>[.<basis>].calls`` metric of the benchmark
    names a function or method of ``elko`` and each ``suite.check.<id>.s``
    metric a registered check: the tracer reads a deleted target as 0
    calls or 0 s, not as an error."""
    names = [metric["name"] for metric in json.loads(BENCHMARK.read_text())["per_layer"]]
    functions = {n.removesuffix(".calls") for n in names if n.endswith(".calls")}
    checks = {n.removeprefix("suite.check.").removesuffix(".s")
              for n in names if n.startswith("suite.check.")}
    assert functions and checks
    unresolved = []
    for name in sorted(functions - _STALE_METRICS):
        module, *path = name.split(".")
        if path[-1] in BASES:  # one factory traced per basis
            path.pop()
        target = importlib.import_module(f"elko.{module}")
        for attr in path:
            target = getattr(target, attr, None)
        if not inspect.isroutine(target):
            unresolved.append(name)
    assert unresolved == []
    assert checks - {c.id for c in suite_checks("all")} == set()
