"""The three benchmark workloads.

Each workload turns the run seed into inputs, makes one timed call into the
library per operation and checks the result at the library's own
tolerances.  ``call`` is the only timed part; ``inputs`` and ``check`` run
outside the clock.

* ``verify-all``: one operation is a full ``elko verify --suite all`` pass,
  run in-process through ``elko.cli.main``; it counts as 60 checks.
* ``point-eval``: one operation is a request that evaluates every spin-1/2
  factory and the momentum-dependent operators at one momentum.
* ``spin-one-scan``: one operation is a single ``spin1_conjugacy_scan``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

REFERENCE_REPORT = Path(__file__).resolve().parent / "reference-all.json"
CHECKS_IN_ALL = 60
# Failed gates are explained on standard error, the first few in full.
EXPLAINED_FAILURES = 10
_failures_seen = 0


def explain_failure(workload: str, message: str):
    """Say on standard error why an operation failed its gate."""
    global _failures_seen
    _failures_seen += 1
    if _failures_seen <= EXPLAINED_FAILURES:
        print(f"{workload}: gate failed: {message}", file=sys.stderr)
    elif _failures_seen == EXPLAINED_FAILURES + 1:
        print(f"{workload}: further gate failures are counted, not explained",
              file=sys.stderr)


def seeded_momenta(seed: int, stream: int):
    """Endless (px, py, pz, m) tuples from the suite's default box: mass
    log-uniform in [0.1, 10], |p| uniform in [0, 10 m], isotropic, with
    draws within 1e-6 of the -z axis rejected as the suite does."""
    rng = np.random.default_rng([seed, stream])
    lo, hi = math.log(0.1), math.log(10.0)
    while True:
        m = math.exp(rng.uniform(lo, hi))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        pabs = rng.uniform(0.0, 10.0 * m)
        vec = pabs * direction
        if pabs > 0 and pabs + vec[2] < 1e-6 * pabs:
            continue
        yield float(vec[0]), float(vec[1]), float(vec[2]), m


class VerifyAll:
    checks_per_op = CHECKS_IN_ALL

    def __init__(self, seed: int, outdir: Path, samples: int = 1000,
                 force_convention: str | None = None):
        import elko.cli
        import elko.suite

        self.cli = elko.cli
        # Bound now, so that checking a pass stays outside a traced run.
        self.from_json = elko.suite.VerificationReport.from_json
        self.diff_reports = elko.suite.diff_reports
        self.seed, self.samples = seed, samples
        self.force_convention = force_convention
        self.report_path = outdir / f"verify-all-{os.getpid()}.json"
        self.reference = self.from_json(REFERENCE_REPORT.read_text())

    def inputs(self, i: int, samples: int | None = None):
        argv = ["verify", "--suite", "all", "--seed", str(self.seed),
                "--samples", str(samples or self.samples), "--out", str(self.report_path)]
        if self.force_convention:
            argv += ["--force-convention", self.force_convention]
        return argv

    def call(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def check(self, argv, code) -> int:
        """Failed checks in this pass: the ids that failed or drifted from
        the reference report, at least one if the exit code, sample count or
        summary is wrong, and all 60 when no readable report was written."""
        where = f"seed {self.seed}, {argv[argv.index('--samples') + 1]} samples"
        try:
            report = self.from_json(self.report_path.read_text())
        except (OSError, ValueError, KeyError) as exc:
            explain_failure("verify-all", f"no readable report ({where}): {exc!r}")
            return self.checks_per_op
        finally:
            self.report_path.unlink(missing_ok=True)
        by_id = {c.id: c for c in report.checks}
        bad = {c.id for c in report.checks if c.status != "pass"}
        bad |= set(self.diff_reports(self.reference, report))
        for cid in sorted(bad):
            c = by_id.get(cid)
            explain_failure("verify-all", (
                f"{cid} {c.status}, residual {c.residual:.4g} ({where})" if c
                else f"{cid} drifted from {REFERENCE_REPORT.name} ({where})"))
        requested = int(argv[argv.index("--samples") + 1])
        whole = {"total": CHECKS_IN_ALL, "passed": CHECKS_IN_ALL, "failed": 0}
        if code != 0 or report.samples != requested or report.summary != whole:
            if not bad:
                explain_failure("verify-all", f"exit code {code}, {report.samples} samples, "
                                f"summary {report.summary} ({where})")
            bad = bad or {"pass"}
        return min(len(bad), self.checks_per_op)

    def warm_up_inputs(self):
        return [self.inputs(0, samples=10)]


class PointEval:
    checks_per_op = 1

    def __init__(self, seed: int):
        from elko import TOLERANCES, dynamics, kinematics, operators, spinors

        self.kin, self.ops, self.sp, self.dyn = kinematics, operators, spinors, dynamics
        self.tol = TOLERANCES["identity"]
        self.conjugation = operators.charge_conjugation()
        self.convention = dynamics.FrequencyConvention(+1)
        self.stream = seeded_momenta(seed, 1)

    def inputs(self, i: int):
        return next(self.stream)

    def warm_up_inputs(self):
        return [self.inputs(i) for i in range(16)]

    def call(self, x):
        kin, ops, sp = self.kin, self.ops, self.sp
        p = kin.make_momentum(*x)
        spinors = [(kind, fn(p, kind, index, basis).components)
                   for fn in (sp.lambda_spinor, sp.rho_spinor)
                   for kind in ("S", "A") for index in ("up", "down")
                   for basis in ("spinorial", "helicity")]
        dirac = [sp.dirac_spinor(p, sign, index, basis).components
                 for sign in ("particle", "antiparticle") for index in ("up", "down")
                 for basis in ("spinorial", "helicity")]
        images = [(kind, v, self.conjugation.apply(v)) for kind, v in spinors]
        xi = ops.xi_matrix(p)
        transforms = ops.lambda_basis_transforms(p)
        rotation = ops.u1(p)
        helicity = ops.helicity_operator(p).matrix
        coupled = self.dyn.coupled_system_residual(p, self.convention)
        return images, coupled, (xi, transforms, rotation, helicity, dirac)

    def check(self, x, result) -> int:
        """C eigenvalue +-1 for every lambda/rho and a vanishing coupled
        system under the '+' convention, both at the identity tolerance."""
        images, coupled, (xi, transforms, rotation, helicity, dirac) = result
        eigen = [np.linalg.norm(cv - (1 if kind == "S" else -1) * v) / np.linalg.norm(v)
                 for kind, v, cv in images]
        shapes_ok = (xi.shape == (2, 2) and len(transforms) == 4 and rotation.shape == (4, 4)
                     and helicity.shape == (4, 4) and len(dirac) == 8)
        ok = shapes_ok and max(eigen) <= self.tol and max(coupled) <= self.tol
        if not ok:
            explain_failure("point-eval", (
                f"momentum {x}: worst C eigenvalue error {max(eigen):.4g}, coupled "
                f"residual {max(coupled):.4g}, shapes {'ok' if shapes_ok else 'wrong'}, "
                f"tolerance {self.tol:g}"))
        return 0 if ok else 1


class SpinOneScan:
    checks_per_op = 1
    # One request per configuration, in this order, over and over.
    CYCLE = (("sc", "lambda"), ("sc", "rho"), ("g5sc", "lambda"), ("g5sc", "rho"))

    def __init__(self, seed: int):
        from elko import TOLERANCES, kinematics, spin_one

        self.kin, self.s1 = kinematics, spin_one
        self.tol = TOLERANCES["zeta_minimum"]
        self.stream = seeded_momenta(seed, 2)

    def inputs(self, i: int):
        return next(self.stream), self.CYCLE[i % len(self.CYCLE)]

    def warm_up_inputs(self):
        return [self.inputs(i) for i in range(16)]

    def call(self, x):
        (px, py, pz, m), (operator, construction) = x
        return self.s1.spin1_conjugacy_scan(self.kin.make_momentum(px, py, pz, m),
                                            operator, construction)

    def check(self, x, scan) -> int:
        """The twisted conjugation is solved at zeta = +-1 to the zeta-minimum
        tolerance; the bare one stays above the floor for both signs."""
        if scan.operator == "sc":
            if not scan.floor_exceeded:
                explain_failure("spin-one-scan", f"{x}: sc stays below its floor")
            return 0 if scan.floor_exceeded else 1
        worst = max(scan.self_minimum.residual, scan.anti_minimum.residual,
                    abs(scan.self_minimum.zeta - 1.0), abs(scan.anti_minimum.zeta + 1.0))
        if worst > self.tol:
            explain_failure("spin-one-scan", f"{x}: g5sc minima off by {worst:.4g}, "
                            f"tolerance {self.tol:g}")
        return 0 if worst <= self.tol else 1


def make(name: str, seed: int, outdir: Path, samples: int, force_convention):
    if name == "verify-all":
        return VerifyAll(seed, outdir, samples, force_convention)
    if name == "point-eval":
        return PointEval(seed)
    if name == "spin-one-scan":
        return SpinOneScan(seed)
    raise ValueError(f"unknown workload {name!r}")
