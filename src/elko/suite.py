"""Named, seeded, tolerance-tagged verification checks and the structured
report they produce.

Every check is a ``CheckSpec`` with a unique descriptive anchor; a suite run
samples momenta deterministically per check (seeded by the run seed and the
check id), executes every check, and assembles a ``VerificationReport`` whose
JSON serialisation is byte-stable for a fixed (suite, seed, samples).

The sampler returns a ``MomentumBatch``; the checks that sample at the full
sample count evaluate their identity as one whole-array residual over it
and report the largest (for floors, the smallest) row.  A check that raises
is reported with status ``error`` and counts as failed.
"""

from __future__ import annotations

import cmath
import json
import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import TOLERANCES
from .errors import ElkoError, UsageError
from . import dynamics as dyn
from . import kinematics as kin
from . import matrices as mat
from . import operators as ops
from . import spin_one as s1
from . import spinors as sp

SUITE_NAMES = ("spin-half", "symmetry", "dynamics", "spin-one")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class RunContext:
    """Per-run state: seed, sample count, convention, resample counter."""

    def __init__(self, seed: int, samples: int, force_convention=None):
        self.seed = int(seed)
        self.samples = int(samples)
        self.force_convention = force_convention
        self.resamples = 0
        self._convention = None

    def rng(self, check_id: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(check_id.encode())])

    def momenta(self, check_id: str, n=None, max_beta_scale: float = 10.0) -> kin.MomentumBatch:
        """n random on-shell momenta as a batch: mass log-uniform in
        [0.1, 10], |p| uniform in [0, 10 m], direction uniform, -z axis
        avoided.  Each attempt is drawn in turn and yields at most one row;
        after rejections exactly the missing number of attempts is drawn
        again, so the rows and ``resamples`` are those of drawing the
        momenta one by one."""
        rng = self.rng(check_id)
        lo, hi = np.log(0.1), np.log(10.0)
        rows = [np.empty((0, 4))]
        missing = self.samples if n is None else n
        while missing > 0:
            u, g, v = kin._draw_attempts(rng, missing)
            m = np.exp(lo + (hi - lo) * u)
            direction = g / np.sqrt(mat.sqnorm(g))[:, None]
            pabs = (max_beta_scale * m) * v
            vec = pabs[:, None] * direction
            keep = ~((pabs > 0) & (pabs + vec[:, 2] < 1e-6 * pabs))
            rows.append(np.column_stack([vec, m])[keep])
            kept = int(np.count_nonzero(keep))
            self.resamples += len(keep) - kept
            missing -= kept
        return kin.make_momenta(*np.concatenate(rows).T)

    def convention(self) -> dyn.FrequencyConvention:
        if self.force_convention is not None:
            return self.force_convention
        if self._convention is None:
            probe = self.momenta("dynamics.convention", n=max(1, min(self.samples, 16)))
            self._convention = dyn.discover_convention(probe)
        return self._convention


@dataclass(frozen=True)
class CheckSpec:
    """One verifiable identity: id, human anchor, sampling strategy tag,
    tolerance, expectation semantics and the callable that measures it."""

    id: str
    anchor: str
    sampler: str
    tolerance: float
    expectation: str                     # vanish | exceed-floor | classify
    run: Callable[[RunContext], tuple]   # ctx -> (residual, constants)
    expected_relation: str | None = None

    def passes(self, residual: float, constants: dict) -> bool:
        if self.expectation == "vanish":
            return residual <= self.tolerance
        if self.expectation == "exceed-floor":
            return residual > self.tolerance
        if self.expectation == "classify":
            return (constants.get("relation") == self.expected_relation
                    and residual <= self.tolerance)
        raise UsageError(f"unknown expectation {self.expectation!r}")


@dataclass
class CheckOutcome:
    id: str
    anchor: str
    status: str
    residual: float
    samples: int
    constants: dict


@dataclass
class VerificationReport:
    suite: str
    seed: int
    samples: int
    convention: str
    resamples: int
    checks: list
    summary: dict

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "convention": self.convention,
            "resamples": self.resamples,
            "checks": [
                {
                    "id": c.id,
                    "anchor": c.anchor,
                    "status": c.status,
                    "residual": c.residual,
                    "samples": c.samples,
                    "constants": c.constants,
                }
                for c in self.checks
            ],
            "summary": self.summary,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        data = json.loads(text)
        checks = [CheckOutcome(c["id"], c["anchor"], c["status"], c["residual"],
                               c["samples"], c["constants"]) for c in data["checks"]]
        return VerificationReport(data["suite"], data["seed"], data["samples"],
                                  data["convention"], data["resamples"], checks,
                                  data["summary"])

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0


def _c(z: complex):
    """Deterministic JSON encoding of a complex constant: [re, im] rounded."""
    return [round(float(np.real(z)), 9), round(float(np.imag(z)), 9)]


def _norm(x):
    """Row norms of (N, k) vectors or (N, k, k) matrices."""
    x = np.asarray(x)
    return np.linalg.norm(x, axis=-1 if x.ndim < 3 else (-2, -1))


def _rel(r, v):
    """Row norms of r relative to those of v."""
    return _norm(r) / _norm(v)


def _max(*rows) -> float:
    return max(float(np.max(r, initial=0.0)) for r in rows)


def _unit(v):
    return v / _norm(v)[..., None]


def _moving(momenta):
    """The rows with a defined direction (|p| > 0)."""
    return momenta[momenta.p_abs > 0.0]


# ---------------------------------------------------------------------------
# check implementations: spin-half
# ---------------------------------------------------------------------------

_TOL = TOLERANCES


def _chk_conjugacy(kind, family_fn, sign):
    def run(ctx):
        worst = 0.0
        momenta = ctx.momenta(f"spin-half.conjugacy-{kind}")
        rng = ctx.rng(f"spin-half.conjugacy-{kind}-phases")
        thetas = [0.0, math.pi / 2, math.pi, float(rng.uniform(0, 2 * math.pi))]
        for index in ("up", "down"):
            for basis in ("spinorial", "helicity"):
                v = family_fn(momenta, index, basis)
                for theta_c in thetas:
                    c_op = ops.charge_conjugation(sp.PhaseConfig(theta_c=theta_c))
                    expected = sign * cmath.exp(1j * theta_c)
                    worst = max(worst, _max(_rel(c_op.apply(v) - expected * v, v)))
        return worst, {"eigenvalue-sign": sign}

    return run


def _lambda_of(kind):
    return lambda p, index, basis: sp.lambda_components(p, kind, index, basis)


def _rho_of(kind):
    return lambda p, index, basis: sp.rho_components(p, kind, index, basis)


def _chk_rest_forms(ctx):
    worst = 0.0
    for m in (0.5, 1.0, 2.0, 8.0):
        scale = math.sqrt(m / 2.0)
        for (kind, index), pattern in sp.REST_LAMBDA_PATTERNS.items():
            worst = max(worst, float(np.linalg.norm(
                sp.rest_lambda(kind, index, m).components - scale * pattern)))
        for (kind, index), pattern in sp.REST_RHO_PATTERNS.items():
            worst = max(worst, float(np.linalg.norm(
                sp.rest_rho(kind, index, m).components - scale * pattern)))
    return worst, {}


def _chk_boost_consistency(ctx):
    worst = 0.0
    phases = []
    momenta = ctx.momenta("spin-half.boost-consistency")
    b = kin.boost_half_pair(momenta)
    scale = mat.column(np.sqrt(momenta.m / 2.0))
    for kind in ("S", "A"):
        for index in ("up", "down"):
            for patterns, closed_fn in ((sp.REST_LAMBDA_PATTERNS, sp.lambda_components),
                                        (sp.REST_RHO_PATTERNS, sp.rho_components)):
                boosted = mat.matvec(b, scale * patterns[(kind, index)])
                closed = closed_fn(momenta, kind, index)
                phase = mat.vdot(closed, boosted) / mat.vdot(closed, closed)
                phases.append(phase)
                worst = max(worst, _max(_norm(boosted - mat.column(phase) * closed),
                                        np.abs(np.abs(phase) - 1.0)))
    mean_phase = complex(np.mean(phases))
    worst = max(worst, abs(mean_phase - 1.0))
    return worst, {"global-phase": _c(mean_phase)}


def _chk_rest_limit(ctx):
    worst = 0.0
    for m in (0.5, 1.0, 3.0):
        p = kin.make_momentum(0.4e-8 * m, -0.6e-8 * m, 0.3e-8 * m, m)
        for kind in ("S", "A"):
            for index in ("up", "down"):
                worst = max(worst, float(np.linalg.norm(
                    sp.lambda_spinor(p, kind, index).components
                    - sp.rest_lambda(kind, index, m).components)))
                worst = max(worst, float(np.linalg.norm(
                    sp.rho_spinor(p, kind, index).components
                    - sp.rest_rho(kind, index, m).components)))
    return worst, {}


# Space-inversion phases of the fixed-axis family: lambda^S picks +i on
# index up -> down, -i on down -> up; lambda^A the opposite signs.
_PARITY_MAP = [
    ("S", "up", "down", 1j),
    ("S", "down", "up", -1j),
    ("A", "up", "down", -1j),
    ("A", "down", "up", 1j),
]


def _chk_parity_spinorial(ctx):
    worst = 0.0
    momenta = ctx.momenta("spin-half.parity-spinorial")
    pr = kin.parity_reflect(momenta)
    for kind, src, dst, coeff in _PARITY_MAP:
        img = mat.matvec(mat.gamma0, sp.lambda_components(pr, kind, src))
        tgt = coeff * sp.lambda_components(momenta, kind, dst)
        worst = max(worst, _max(_norm(img - tgt)))
    return worst, {"coefficients": [_c(c) for *_ , c in _PARITY_MAP]}


def _chk_parity_helicity(ctx):
    rng = ctx.rng("spin-half.parity-helicity")
    worst = 0.0
    for _ in range(ctx.samples):
        th = float(rng.uniform(0, math.pi))
        ph = float(rng.uniform(0, 2 * math.pi))
        t1, t2 = (float(x) for x in rng.uniform(0, 2 * math.pi, 2))
        fp = sp.helicity_components(th, ph, 1, t1, t2)
        fm = sp.helicity_components(th, ph, -1, t1, t2)
        rfp = sp.helicity_components(math.pi - th, math.pi + ph, 1, t1, t2)
        rfm = sp.helicity_components(math.pi - th, math.pi + ph, -1, t1, t2)
        worst = max(worst, float(np.linalg.norm(rfm - (-1j) * cmath.exp(1j * (t2 - t1)) * fp)))
        worst = max(worst, float(np.linalg.norm(rfp - (-1j) * cmath.exp(1j * (t1 - t2)) * fm)))
        worst = max(worst, float(np.linalg.norm(
            mat.theta_half @ np.conj(rfm) - (-1j) * cmath.exp(-2j * t2) * fm)))
        worst = max(worst, float(np.linalg.norm(
            mat.theta_half @ np.conj(rfp) - (1j) * cmath.exp(-2j * t1) * fp)))
    return worst, {}


def _chk_index_flip_unitary(ctx):
    rng = ctx.rng("spin-half.index-flip")
    worst = 0.0
    for _ in range(ctx.samples):
        th = float(rng.uniform(0, math.pi))
        ph = float(rng.uniform(0, 2 * math.pi))
        al, be = (float(x) for x in rng.uniform(0, 2 * math.pi, 2))
        up = sp.helicity_components(th, ph, 1, theta1=al)
        down = sp.helicity_components(th, ph, -1, theta2=be)
        u = sp.index_flip_unitary(ph, al, be)
        worst = max(worst, float(np.linalg.norm(u @ up - down)))
        worst = max(worst, float(np.linalg.norm(u.conj().T @ down - up)))
        worst = max(worst, float(np.linalg.norm(u @ u.conj().T - np.eye(2))))
    return worst, {}


def _chk_helicity_noneigen(ctx):
    best = math.inf
    momenta = _moving(ctx.momenta("spin-half.helicity-noneigen"))
    h_op = ops.helicity_operator(momenta)
    # the fixed-axis family only counts off the coordinate planes
    generic = ((np.abs(momenta.px) > 1e-9) & (np.abs(momenta.py) > 1e-9)
               & (np.abs(momenta.pz) > 1e-9))
    for basis, rows in (("helicity", slice(None)), ("spinorial", generic)):
        for k in ("S", "A"):
            for i in ("up", "down"):
                v = _unit(sp.lambda_components(momenta, k, i, basis))
                hv = h_op.apply(v)
                mu = mat.vdot(v, hv)
                r = _norm(hv - mat.column(mu) * v)[rows]
                best = min(best, float(np.min(r, initial=math.inf)))
    return best, {}


def _chk_chiral_helicity_eigen(ctx):
    worst = 0.0
    momenta = _moving(ctx.momenta("spin-half.chiral-helicity-eigen"))
    eta = ops.chiral_helicity_operator(momenta)
    for index in ("up", "down"):
        for family_fn, family in ((sp.lambda_components, "lambda"),
                                  (sp.rho_components, "rho")):
            v = _unit(family_fn(momenta, "S", index, "helicity"))
            ev = 0.5 * sp.chiral_helicity_sign(family, index)
            worst = max(worst, _max(_norm(eta.apply(v) - ev * v)))
    return worst, {"lambda-up": 0.5, "rho-up": -0.5}


def _chk_dirac_eigen(ctx):
    worst = 0.0
    momenta = ctx.momenta("spin-half.dirac-eigen")
    gp = dyn.dirac_matrix(momenta)
    m = mat.column(momenta.m)
    for basis in ("spinorial", "helicity"):
        for index in ("up", "down"):
            u = sp.dirac_components(momenta, "particle", index, basis)
            v = sp.dirac_components(momenta, "antiparticle", index, basis)
            worst = max(worst, _max(_rel(mat.matvec(gp, u) - m * u, u),
                                    _rel(mat.matvec(gp, v) + m * v, v)))
    return worst, {}


def _chk_bar_norms(ctx):
    momenta = ctx.momenta("spin-half.bar-norms")
    m = momenta.m
    lu = sp.lambda_components(momenta, "S", "up")
    ld = sp.lambda_components(momenta, "S", "down")
    u = sp.dirac_components(momenta, "particle", "up")
    v = sp.dirac_components(momenta, "antiparticle", "down")
    cross = sp.bar_product(lu, ld) / m
    worst = _max(np.abs(sp.bar_product(lu, lu)) / m,
                 np.abs(sp.bar_product(u, u) - 2 * m) / m,
                 np.abs(sp.bar_product(v, v) + 2 * m) / m,
                 np.abs(np.abs(cross) - 1.0))
    mean_cross = complex(np.mean(cross))
    worst = max(worst, abs(mean_cross - (-1j)))
    return worst, {"lambda-cross-phase": _c(mean_cross)}


# ---------------------------------------------------------------------------
# check implementations: symmetry
# ---------------------------------------------------------------------------

def _chk_c_squared(ctx):
    rng = ctx.rng("symmetry.c-squared")
    worst = 0.0
    for theta_c in (0.0, math.pi / 2, math.pi, float(rng.uniform(0, 2 * math.pi))):
        c_op = ops.charge_conjugation(sp.PhaseConfig(theta_c=theta_c))
        cc = c_op.compose(c_op)
        for _ in range(8):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            worst = max(worst, float(np.linalg.norm(cc.apply(v) - v)) / np.linalg.norm(v))
    return worst, {}


def _chk_c_chirality_anticommute(ctx):
    rng = ctx.rng("symmetry.c-chirality")
    c_op = ops.charge_conjugation()
    g5_op = ops.chirality()
    cg = c_op.compose(g5_op)
    gc = g5_op.compose(c_op)
    worst = 0.0
    for _ in range(max(8, ctx.samples)):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        worst = max(worst, float(np.linalg.norm(cg.apply(v) + gc.apply(v))) / np.linalg.norm(v))
    return worst, {}


def _span_residual(basis, x):
    """Row-wise distance of x from the column span of basis (N, 4, k),
    relative to |x|: the least-squares residual, through a QR factor."""
    q, _ = np.linalg.qr(basis)
    return _rel(x - mat.matvec(q, mat.matvec(mat.adjoint(q), x)), x)


def _chk_c_maps_dirac(ctx):
    c_op = ops.charge_conjugation()
    worst = 0.0
    momenta = ctx.momenta("symmetry.c-maps-dirac")
    us, vs = ([sp.dirac_components(momenta, sign, i) for i in ("up", "down")]
              for sign in ("particle", "antiparticle"))
    v_span, u_span = np.stack(vs, axis=-1), np.stack(us, axis=-1)
    for u, v in zip(us, vs):
        worst = max(worst, _max(_span_residual(v_span, c_op.apply(u)),
                                _span_residual(u_span, c_op.apply(v))))
    return worst, {}


def _chk_parity_dirac(ctx):
    p_op = ops.parity_operator()
    # P^2 = +1 via double reflection
    pp = p_op.compose(p_op)
    worst = 0.0
    momenta = ctx.momenta("symmetry.parity-dirac")
    for index in ("up", "down"):
        u_state = lambda q, i=index: sp.dirac_components(q, "particle", i)
        v_state = lambda q, i=index: sp.dirac_components(q, "antiparticle", i)
        u, v = u_state(momenta), v_state(momenta)
        worst = max(worst, _max(_rel(p_op.apply_state(u_state, momenta) - u, u),
                                _rel(p_op.apply_state(v_state, momenta) + v, v),
                                _rel(pp.apply_state(u_state, momenta) - u, u)))
    return worst, {}


def _chk_parity_involution(ctx):
    worst = 0.0
    for p in ctx.momenta("symmetry.parity-involution"):
        q = kin.parity_reflect(kin.parity_reflect(p))
        worst = max(worst, abs(q.px - p.px), abs(q.py - p.py), abs(q.pz - p.pz),
                    abs(q.E - p.E))
    a = kin.AngularParams(math.pi / 3, math.pi / 4)
    r = a.reflected()
    worst = max(worst, abs(r.theta - 2 * math.pi / 3), abs(r.phi - 5 * math.pi / 4))
    return worst, {}


def _chk_helicity_spectrum(ctx):
    momenta = _moving(ctx.momenta("symmetry.helicity-spectrum"))
    eigs = np.sort(np.linalg.eigvalsh(ops.helicity_operator(momenta).matrix), axis=-1)
    return _max(_norm(eigs - np.array([-0.5, -0.5, 0.5, 0.5]))), {}


def _chk_helicity_parity_anticommute(ctx):
    worst = 0.0
    momenta = _moving(ctx.momenta("symmetry.helicity-parity"))
    pr = kin.parity_reflect(momenta)
    h_here = ops.helicity_operator(momenta).matrix
    h_there = ops.helicity_operator(pr).matrix
    for kind in ("S", "A"):
        for index in ("up", "down"):
            x = sp.lambda_components(pr, kind, index, "helicity")
            r = (mat.matvec(h_here, mat.matvec(mat.gamma0, x))
                 + mat.matvec(mat.gamma0, mat.matvec(h_there, x)))
            worst = max(worst, _max(_rel(r, x)))
    return worst, {}


def _chk_chain_determinants(ctx):
    u = ops.u1(_moving(ctx.momenta("symmetry.chain-determinants")))
    worst = _max(np.abs(np.linalg.det(u) - 1.0))
    worst = max(worst, abs(mat.det(ops.u2()) + 1.0), abs(mat.det(ops.u3()) + 1.0))
    return worst, {"det-u1": 1.0, "det-u2": -1.0, "det-u3": -1.0}


def _chk_chain_unitarity(ctx):
    eye = np.eye(4)
    u = ops.u1(_moving(ctx.momenta("symmetry.chain-unitarity")))
    worst = _max(_norm(u @ mat.adjoint(u) - eye))
    for u in (ops.u2(), ops.u3()):
        worst = max(worst, float(np.linalg.norm(u @ u.conj().T - eye)))
    return worst, {}


def _chk_chain_helicity(ctx):
    target_half = 0.5 * mat.block_diag2(mat.sigma_z, mat.sigma_z)
    target_g5 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    momenta = _moving(ctx.momenta("symmetry.chain-helicity"))
    u = ops.u1(momenta)
    conj1 = u @ ops.helicity_operator(momenta).matrix @ np.linalg.inv(u)
    worst = _max(_norm(conj1 - target_half),
                 _norm(ops.u3() @ conj1 @ np.linalg.inv(ops.u3()) - 0.5 * target_g5))
    return worst, {}


def _chk_chain_chiral_helicity(ctx):
    target = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    momenta = _moving(ctx.momenta("symmetry.chain-chiral-helicity"))
    sn = mat.pauli_dot(momenta.direction())
    alpha_n = mat.block_diag2(sn, -sn)
    u = ops.u1(momenta)
    conj1 = u @ alpha_n @ np.linalg.inv(u)
    return _max(_norm(ops.u2() @ conj1 @ ops.u2().conj().T - target)), {}


def _chk_xi_intertwines(ctx):
    momenta = _moving(ctx.momenta("symmetry.xi-intertwines"))
    xi = ops.xi_matrix(momenta)
    worst = _max(np.abs(_norm(xi) - 1.0))
    for side in ("R", "L"):
        lam = kin.boost_half(momenta, side)
        scale = _norm(lam) + _norm(np.conj(lam))
        worst = max(worst, _max(_norm(xi @ lam - np.conj(lam) @ xi) / scale))
    return worst, {}


_TRANSFORM_TARGETS = "conj-anti, -i conj-self, i gamma0 conj-anti, gamma0 conj-self"


def _transform_targets(p, h):
    ls = sp.lambda_components(p, "S", "up" if h > 0 else "down", "helicity")
    la = sp.lambda_components(p, "A", "up" if h > 0 else "down", "helicity")
    return ls, [np.conj(la), -1j * np.conj(ls), 1j * mat.matvec(mat.gamma0, np.conj(la)),
                mat.matvec(mat.gamma0, np.conj(ls))]


def _chk_lambda_transforms(ctx):
    worst = 0.0
    coeffs = [[], [], [], []]
    momenta = _moving(ctx.momenta("symmetry.lambda-transforms"))
    transforms = ops.lambda_basis_transforms(momenta)
    for h in (1, -1):
        ls, targets = _transform_targets(momenta, h)
        for k, (t, target) in enumerate(zip(transforms, targets)):
            img = mat.matvec(t, ls)
            c = mat.vdot(target, img) / mat.vdot(target, target)
            coeffs[k].append(c)
            worst = max(worst, _max(_rel(img - mat.column(c) * target, ls),
                                    np.abs(np.abs(c) - 1.0)))
    consts = {f"coefficient-{k+1}": _c(complex(np.mean(cs))) for k, cs in enumerate(coeffs)}
    # coefficient pattern (c, -ic, ic, c) with c real positive
    c0 = complex(np.mean(coeffs[0]))
    worst = max(worst, abs(c0 - 1.0))
    return worst, consts


def _chk_lambda_transform_conjugacy(ctx):
    c_op = ops.charge_conjugation()
    worst = 0.0
    momenta = _moving(ctx.momenta("symmetry.lambda-transform-conjugacy"))
    transforms = ops.lambda_basis_transforms(momenta)
    for h in (1, -1):
        ls = sp.lambda_components(momenta, "S", "up" if h > 0 else "down", "helicity")
        for t in transforms:
            img = mat.matvec(t, ls)
            worst = max(worst, _max(_rel(c_op.apply(img) - img, img)))
    return worst, {}


def _chk_lambda_transform_involution(ctx):
    t1 = ops.lambda_basis_transforms(
        _moving(ctx.momenta("symmetry.lambda-transform-involution")))[0]
    return _max(_norm(t1 @ np.conj(t1) - np.eye(4))), {}


def _chk_chiral_gauge_unitary(ctx):
    rng = ctx.rng("symmetry.chiral-gauge-unitary")
    worst = float(np.linalg.norm(ops.chiral_gauge_transform(0.0, "lambda") - np.eye(4)))
    for alpha in rng.uniform(0, 2 * math.pi, 20):
        for family in ("lambda", "rho"):
            g = ops.chiral_gauge_transform(float(alpha), family)
            worst = max(worst, float(np.linalg.norm(g @ g.conj().T - np.eye(4))))
    return worst, {}


def _chk_chiral_gauge_conjugacy(ctx):
    rng = ctx.rng("symmetry.chiral-gauge-conjugacy")
    c_op = ops.charge_conjugation()
    worst = 0.0
    for p in ctx.momenta("symmetry.chiral-gauge-conjugacy", n=min(ctx.samples, 20)):
        for alpha in rng.uniform(0, 2 * math.pi, 5):
            gl = ops.chiral_gauge_transform(float(alpha), "lambda")
            gr = ops.chiral_gauge_transform(float(alpha), "rho")
            for index in ("up", "down"):
                v = gl @ sp.lambda_spinor(p, "S", index).components
                worst = max(worst, float(np.linalg.norm(c_op.apply(v) - v)) / np.linalg.norm(v))
                w = gr @ sp.rho_spinor(p, "A", index).components
                worst = max(worst, float(np.linalg.norm(c_op.apply(w) + w)) / np.linalg.norm(w))
    return worst, {}


def _chk_su2_closure(ctx):
    rng = ctx.rng("symmetry.su2-closure")
    worst = 0.0
    # abelian subgroup composition law
    for a, b in rng.uniform(0, 2 * math.pi, (10, 2)):
        za = ops.su2_phase_transform(math.cos(a), [0, 0, math.sin(a)])
        zb = ops.su2_phase_transform(math.cos(b), [0, 0, math.sin(b)])
        zab = ops.su2_phase_transform(math.cos(a + b), [0, 0, math.sin(a + b)])
        worst = max(worst, float(np.linalg.norm(za @ zb - zab)))
    # generic closure: products stay unitary with unit-modulus determinant
    for _ in range(max(10, ctx.samples // 5)):
        pair = []
        for _ in range(2):
            phi = float(rng.uniform(0, 2 * math.pi))
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            pair.append(ops.su2_phase_transform(math.cos(phi), n * math.sin(phi)))
        prod = pair[0] @ pair[1]
        worst = max(worst, float(np.linalg.norm(prod @ prod.conj().T - np.eye(2))))
        worst = max(worst, abs(abs(np.linalg.det(prod)) - 1.0))
    return worst, {}


def _chk_cp_dirac(ctx):
    res = ops.classify_cp_action("spinorial", "dirac", seed=ctx.seed,
                                 n_momenta=ctx.samples)
    separation = min(res.commute_residual, 1.0)
    constants = {"relation": res.relation,
                 "commute-residual": round(res.commute_residual, 6),
                 "anticommute-residual": round(res.anticommute_residual, 9)}
    residual = res.anticommute_residual if separation > _TOL["floor"] else 1.0
    return residual, constants


def _chk_cp_elko(ctx):
    res = ops.classify_cp_action("helicity", "elko", seed=ctx.seed,
                                 n_momenta=ctx.samples)
    separation = min(res.anticommute_residual, 1.0)
    constants = {"relation": res.relation,
                 "commute-residual": round(res.commute_residual, 9),
                 "anticommute-residual": round(res.anticommute_residual, 6)}
    # measured inversion images (i gamma0 R) lambda^S_h = -+ i lambda^A_h
    p = ctx.momenta("symmetry.cp-elko-image", n=1)[0]
    if p.p_abs > 0:
        a = p.angles()
        pr = kin.parity_reflect(p)
        worst_img = 0.0
        for h, coeff in ((1, -1j), (-1, 1j)):
            img = 1j * mat.gamma0 @ sp.helicity_lambda_at(
                pr, "S", h, math.pi - a.theta, math.pi + a.phi)
            tgt = coeff * sp.helicity_lambda_at(p, "A", h, a.theta, a.phi)
            worst_img = max(worst_img, float(np.linalg.norm(img - tgt)) / np.linalg.norm(img))
        constants["image-coefficient-up"] = _c(-1j)
        constants["image-coefficient-down"] = _c(1j)
        residual = max(res.commute_residual, worst_img)
    else:
        residual = res.commute_residual
    if separation <= _TOL["floor"]:
        residual = 1.0
    return residual, constants


def _chk_composition_associativity(ctx):
    rng = ctx.rng("symmetry.composition-associativity")
    pool = [
        ops.charge_conjugation(),
        ops.parity_operator(),
        ops.chirality(),
        ops.SymmetryOperator(ops.chiral_gauge_transform(0.7, "lambda")),
        ops.charge_conjugation(sp.PhaseConfig(theta_c=1.1)),
    ]
    worst = 0.0
    momenta = ctx.momenta("symmetry.composition-associativity", n=min(ctx.samples, 10))
    for _ in range(12):
        a, b, c = (pool[int(k)] for k in rng.integers(0, len(pool), 3))
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        worst = max(worst, float(np.linalg.norm(left.matrix - right.matrix)))
        worst = max(worst, abs(left.phase - right.phase))
        if left.antilinear != right.antilinear or left.reflects_momentum != right.reflects_momentum:
            worst = 1.0
        for p in momenta[:3]:
            state = lambda q: sp.lambda_spinor(q, "S", "up").components
            worst = max(worst, float(np.linalg.norm(
                left.apply_state(state, p) - right.apply_state(state, p))))
    # antilinear composed with antilinear is linear
    if pool[0].compose(pool[4]).antilinear:
        worst = 1.0
    return worst, {}


# ---------------------------------------------------------------------------
# check implementations: dynamics
# ---------------------------------------------------------------------------

def _chk_convention(ctx):
    conv = ctx.convention()
    # stability: rediscover on a fresh batch
    other = dyn.discover_convention(ctx.momenta("dynamics.convention-probe", n=4))
    residual = 0.0 if (ctx.force_convention is not None or other.sign == conv.sign) else 1.0
    return residual, {"sign": "+" if conv.sign > 0 else "-"}


def _chk_coupled(ctx):
    conv = ctx.convention()
    return _max(*dyn.coupled_system_residual(ctx.momenta("dynamics.coupled-system"), conv)), {}


def _chk_wrong_convention(ctx):
    conv = ctx.convention()
    wrong = dyn.FrequencyConvention(-conv.sign)
    momenta = ctx.momenta("dynamics.wrong-convention")
    per_row = np.max(dyn.coupled_system_residual(momenta, wrong), axis=0) / momenta.m
    return float(np.min(per_row, initial=math.inf)), {}


def _chk_clifford_square(ctx):
    momenta = ctx.momenta("dynamics.clifford-square")
    gp = dyn.dirac_matrix(momenta)
    m2 = momenta.m ** 2
    return _max(_norm(gp @ gp - m2[:, None, None] * np.eye(4)) / m2), {}


def _chk_markov(ctx):
    rng = ctx.rng("dynamics.markov")
    worst = 0.0
    for p in ctx.momenta("dynamics.markov", n=min(ctx.samples, 25)):
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        pair = dyn.markov_superposition(p, (w[0], w[1]), (w[2], w[3]))
        gp = dyn.dirac_matrix(p)
        scale = max(np.linalg.norm(pair.chi), np.linalg.norm(pair.eta), 1e-12)
        worst = max(worst, float(np.linalg.norm(gp @ pair.chi - p.m * pair.eta)) / scale)
        worst = max(worst, float(np.linalg.norm(gp @ pair.eta - p.m * pair.chi)) / scale)
        # u/v span and isometry
        basis = np.column_stack(
            [sp.dirac_spinor(p, s, i).components
             for s in ("particle", "antiparticle") for i in ("up", "down")])
        for vec in pair:
            fit, *_ = np.linalg.lstsq(basis, vec, rcond=None)
            worst = max(worst, float(np.linalg.norm(vec - basis @ fit)) / scale)
        psi1 = (w[0] * sp.dirac_spinor(p, "particle", "up").components
                + w[1] * sp.dirac_spinor(p, "particle", "down").components)
        psi2 = (w[2] * sp.dirac_spinor(p, "antiparticle", "up").components
                + w[3] * sp.dirac_spinor(p, "antiparticle", "down").components)
        before = np.linalg.norm(psi1) ** 2 + np.linalg.norm(psi2) ** 2
        after = np.linalg.norm(pair.chi) ** 2 + np.linalg.norm(pair.eta) ** 2
        worst = max(worst, abs(before - after) / before)
    return worst, {}


def _chk_sen_gupta_dirac_limit(ctx):
    worst = 0.0
    for p in ctx.momenta("dynamics.sen-gupta-dirac-limit", n=min(ctx.samples, 25)):
        u = sp.dirac_spinor(p, "particle", "up")
        worst = max(worst, dyn.sen_gupta_residual(p, p.m, 0.0, u) / np.linalg.norm(u.components))
    return worst, {}


def _chk_sen_gupta_null_dim(ctx):
    rng = ctx.rng("dynamics.sen-gupta-null-dim")
    worst = 0.0
    dims = set()
    for _ in range(10):
        m1 = float(rng.uniform(0.5, 3.0))
        m2 = float(rng.uniform(0.0, 0.9)) * m1
        vec = rng.normal(size=3)
        e = math.sqrt(m1 ** 2 - m2 ** 2 + float(vec @ vec))
        null = dyn.sen_gupta_null_space(e, *vec, m1, m2)
        dims.add(len(null))
        op = dyn.sen_gupta_operator(e, *vec, m1, m2)
        for v in null:
            worst = max(worst, float(np.linalg.norm(op @ v)))
        if len(null) != 2:
            worst = 1.0
    return worst, {"null-dimension": 2}


def _chk_sen_gupta_off_shell(ctx):
    rng = ctx.rng("dynamics.sen-gupta-off-shell")
    worst = 0.0
    for _ in range(10):
        m1, m2 = 2.0, 1.0
        vec = rng.normal(size=3)
        e = math.sqrt(m1 ** 2 - m2 ** 2 + float(vec @ vec)) * float(rng.uniform(1.1, 2.0))
        null = dyn.sen_gupta_null_space(e, *vec, m1, m2)
        worst = max(worst, float(len(null)))
    return worst, {}


def _chk_sen_gupta_equivalence(ctx):
    rng = ctx.rng("dynamics.sen-gupta-equivalence")
    worst = 0.0
    for _ in range(10):
        m1 = float(rng.uniform(0.5, 3.0))
        m2 = float(rng.uniform(0.1, 0.9)) * m1
        mu = math.sqrt(m1 ** 2 - m2 ** 2)
        vec = rng.normal(size=3)
        e = math.sqrt(mu ** 2 + float(vec @ vec))
        emat = dyn.sen_gupta_equivalence(m1, m2)
        dirac = dyn.slash(e, *vec) - mu * np.eye(4)
        for v in dyn.sen_gupta_null_space(e, *vec, m1, m2):
            mapped = np.linalg.inv(emat) @ v
            worst = max(worst, float(np.linalg.norm(dirac @ mapped)) / np.linalg.norm(mapped))
    return worst, {}


def _chk_sen_gupta_massless(ctx):
    rng = ctx.rng("dynamics.sen-gupta-massless")
    best = math.inf
    for _ in range(10):
        m2 = float(rng.uniform(0.3, 2.0))
        vec = rng.normal(size=3)
        vec *= (m2 * float(rng.uniform(1.2, 3.0))) / np.linalg.norm(vec)
        e = math.sqrt(float(vec @ vec) - m2 ** 2)
        null = dyn.sen_gupta_null_space(e, *vec, 0.0, m2)
        if not null:
            return 0.0, {"note": "no null vectors found"}
        n = vec / np.linalg.norm(vec)
        chiral_h = mat.block_diag2(mat.pauli_dot(n), -mat.pauli_dot(n))
        for v in null:
            v = v / np.linalg.norm(v)
            av = chiral_h @ v
            mu_fit = np.vdot(v, av)
            best = min(best, float(np.linalg.norm(av - mu_fit * v)))
    return best, {}


def _chk_eight_component(ctx):
    conv = ctx.convention()
    momenta = ctx.momenta("dynamics.eight-component")
    gp = dyn.dirac_matrix(momenta)
    l5 = dyn.lambda5()
    # with l5 = diag(g5, -g5) and the kinetic block [[0, G], [G, 0]], the
    # commutator is [[0, {g5, G}], [-{g5, G}, 0]]; its 4x4 blocks keep the
    # batch free of 8x8 arrays
    anti = mat.gamma5 @ gp + gp @ mat.gamma5
    worst = _max(dyn.eight_component_residual(momenta, conv),
                 math.sqrt(2.0) * _norm(anti) / np.maximum(1.0, momenta.E))
    worst = max(worst, float(np.linalg.norm(l5 @ l5 - np.eye(8))))
    return worst, {}


def _chk_eight_gauge(ctx):
    conv = ctx.convention()
    rng = ctx.rng("dynamics.eight-gauge")
    worst = 0.0
    for p in ctx.momenta("dynamics.eight-gauge", n=min(ctx.samples, 10)):
        for alpha in rng.uniform(0, 2 * math.pi, 20):
            g8 = dyn.eight_gauge_transform(float(alpha))
            for index in ("up", "down"):
                s_stack, a_stack = dyn.eight_stacks(p, index)
                for stack, sector in ((s_stack, "S"), (a_stack, "A")):
                    op = dyn.eight_operator(p, conv, sector)
                    worst = max(worst, float(np.linalg.norm(op @ (g8 @ stack.components))))
    return worst, {}


def _chk_mass_term_chiral(ctx):
    rng = ctx.rng("dynamics.mass-term-chiral")
    worst = 0.0
    physical = 0.0
    for p in ctx.momenta("dynamics.mass-term-chiral", n=min(ctx.samples, 10)):
        quartet = [sp.lambda_spinor(p, "S", "up").components,
                   sp.rho_spinor(p, "A", "up").components,
                   sp.lambda_spinor(p, "A", "up").components,
                   sp.rho_spinor(p, "S", "up").components]
        base_phys = dyn.lagrangian_mass_term(*quartet, p.m)
        physical = max(physical, abs(base_phys))
        for alpha in rng.uniform(0, 2 * math.pi, 5):
            gl = ops.chiral_gauge_transform(float(alpha), "lambda")
            gr = ops.chiral_gauge_transform(float(alpha), "rho")
            fields = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(4)]
            before = dyn.lagrangian_mass_term(*fields, p.m)
            after = dyn.lagrangian_mass_term(
                gl @ fields[0], gr @ fields[1], gl @ fields[2], gr @ fields[3], p.m)
            worst = max(worst, abs(before - after) / max(1.0, abs(before)))
            moved = dyn.lagrangian_mass_term(
                gl @ quartet[0], gr @ quartet[1], gl @ quartet[2], gr @ quartet[3], p.m)
            worst = max(worst, abs(moved - base_phys))
    worst = max(worst, physical)
    return worst, {"physical-value": round(physical, 12)}


def _chk_mass_term_su2(ctx):
    rng = ctx.rng("dynamics.mass-term-su2")
    worst = 0.0
    for p in ctx.momenta("dynamics.mass-term-su2", n=min(ctx.samples, 10)):
        for _ in range(5):
            phi = float(rng.uniform(0, 2 * math.pi))
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            u = ops.su2_phase_transform(math.cos(phi), n * math.sin(phi))
            d = (rng.normal(size=4) + 1j * rng.normal(size=4),
                 rng.normal(size=4) + 1j * rng.normal(size=4))
            r = (rng.normal(size=4) + 1j * rng.normal(size=4),
                 rng.normal(size=4) + 1j * rng.normal(size=4))
            before = dyn.doublet_mass_term(d, r, p.m)
            after = dyn.doublet_mass_term(dyn.rotate_doublet(u, d), dyn.rotate_doublet(u, r), p.m)
            worst = max(worst, abs(before - after) / max(1.0, abs(before)))
    return worst, {}


def _chk_mass_term_real(ctx):
    rng = ctx.rng("dynamics.mass-term-real")
    worst = 0.0
    for _ in range(20):
        fields = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(4)]
        val = dyn.lagrangian_mass_term(*fields, 1.7)
        worst = max(worst, abs(val.imag) / max(1.0, abs(val)))
    return worst, {}


# ---------------------------------------------------------------------------
# check implementations: spin-one
# ---------------------------------------------------------------------------

def _chk_wigner_one(ctx):
    th = s1.wigner_theta_one()
    worst = float(np.linalg.norm(th.imag))
    worst = max(worst, float(np.linalg.norm(th - th.T)))
    worst = max(worst, float(np.linalg.norm(th @ th.conj().T - np.eye(3))))
    worst = max(worst, float(np.linalg.norm(th @ th - np.eye(3))))
    for j in mat.SPIN1_J:
        worst = max(worst, float(np.linalg.norm(th @ j @ np.linalg.inv(th) + np.conj(j))))
    return worst, {}


def _chk_sc_squared(ctx):
    rng = ctx.rng("spin-one.c-squared-minus-one")
    worst = 0.0
    for phase in (0.0, math.pi / 2, float(rng.uniform(0, 2 * math.pi))):
        op = s1.sc_one(phase)
        for _ in range(8):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            worst = max(worst, float(np.linalg.norm(op.apply(op.apply(v)) + v)) / np.linalg.norm(v))
    return worst, {}


def _chk_ss_squared(ctx):
    rng = ctx.rng("spin-one.block-swap-squared")
    op = s1.ss_one(0.0)
    worst = 0.0
    for _ in range(8):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        worst = max(worst, float(np.linalg.norm(op.apply(op.apply(v)) - v)) / np.linalg.norm(v))
    return worst, {}


def _chk_g5sc_squared(ctx):
    rng = ctx.rng("spin-one.twist-squared")
    worst = 0.0
    for phase in (0.0, 0.9):
        op = s1.gamma5_sc_one(phase)
        for _ in range(8):
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            worst = max(worst, float(np.linalg.norm(op.apply(op.apply(v)) - v)) / np.linalg.norm(v))
    # Gamma5 anticommutes with the conjugation block
    cm = s1.sc_one().matrix
    g5 = s1.gamma5_one()
    worst = max(worst, float(np.linalg.norm(g5 @ cm + cm @ g5)))
    return worst, {}


def _chk_zeta_minima(ctx):
    momenta = kin.as_batch([kin.make_momentum(0, 0, 0, 1.3), *ctx.momenta(
        "spin-one.twisted-conjugacy", n=min(ctx.samples, 8))])
    worst = 0.0
    for construction in ("lambda", "rho"):
        for h in (1, 0, -1):
            scan = s1.spin1_conjugacy_scan(momenta, "g5sc", construction, h)
            worst = max(worst, _max(scan.self_minimum.residual, scan.anti_minimum.residual,
                                    np.abs(scan.self_minimum.zeta - 1.0),
                                    np.abs(scan.anti_minimum.zeta + 1.0)))
    return worst, {"zeta-self": 1.0, "zeta-anti": -1.0}


def _chk_bare_conjugacy_floor(ctx):
    momenta = kin.as_batch([kin.make_momentum(0, 0, 0, 0.9), *ctx.momenta(
        "spin-one.bare-conjugacy", n=min(ctx.samples, 20))])
    best = math.inf
    for construction in ("lambda", "rho"):
        for h in (1, 0, -1):
            scan = s1.spin1_conjugacy_scan(momenta, "sc", construction, h)
            best = min(best, float(np.min(scan.self_minimum.residual)),
                       float(np.min(scan.anti_minimum.residual)))
    return best, {}


def _chk_zeta_boost_persistence(ctx):
    worst = 0.0
    for p in ctx.momenta("spin-one.zeta-persistence", n=min(ctx.samples, 20)):
        a = p.angles()
        op = s1.gamma5_sc_one()
        for zeta, sign in ((1.0, 1.0), (-1.0, -1.0)):
            for h in (1, 0, -1):
                v = s1.spin1_lambda(p, zeta, a, h)
                worst = max(worst, float(
                    np.linalg.norm(op.apply(v.components) - sign * v.components)) / v.norm)
    return worst, {}


def _chk_scan_phase_covariance(ctx):
    p = kin.make_momentum(0.3, -0.4, 0.5, 1.0)
    worst = 0.0
    for phase in (0.7, 2.1):
        scan = s1.spin1_conjugacy_scan(p, "g5sc", "lambda", 1, op_phase=phase)
        worst = max(worst, abs(scan.self_minimum.zeta - cmath.exp(1j * phase)))
        worst = max(worst, scan.self_minimum.residual)
    return worst, {"optimal-zeta-rotation": "e^(i phase)"}


def _chk_boost_one_closed_form(ctx):
    worst = 0.0
    for p in ctx.momenta("spin-one.boost-closed-form", n=min(ctx.samples, 20)):
        if p.p_abs == 0.0:
            continue
        n = p.vec / p.p_abs
        x = math.acosh(p.E / p.m)
        # 20-term series oracle with scaling and squaring so the truncation
        # stays far below tolerance up to E/m ~ 10
        halvings = max(0, math.ceil(math.log2(max(x, 1e-12) / 0.5)))
        arg = mat.spin1_dot(n) * (x / 2 ** halvings)
        series = np.zeros((3, 3), dtype=complex)
        term = np.eye(3, dtype=complex)
        for order in range(20):
            series += term
            term = term @ arg / (order + 1)
        for _ in range(halvings):
            series = series @ series
        worst = max(worst, float(np.linalg.norm(series - kin.boost_one(p, "R"))))
    return worst, {}


def _chk_boost_one_z_eigen(ctx):
    p = kin.make_momentum(0, 0, math.sqrt(3.0), 1.0)  # E/m = 2
    target = np.diag([2 + math.sqrt(3.0), 1.0, 2 - math.sqrt(3.0)]).astype(complex)
    worst = float(np.linalg.norm(kin.boost_one(p, "R") - target))
    rest = kin.make_momentum(0, 0, 0, 2.0)
    worst = max(worst, float(np.linalg.norm(kin.boost_one(rest, "R") - np.eye(3))))
    return worst, {}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _vanish(id_, anchor, run, sampler="momenta", tol_key="identity"):
    return CheckSpec(id_, anchor, sampler, _TOL[tol_key], "vanish", run)


def _floor(id_, anchor, run, sampler="momenta", tol=None):
    return CheckSpec(id_, anchor, sampler, _TOL["floor"] if tol is None else tol,
                     "exceed-floor", run)


def _build_registry():
    spin_half = [
        _vanish("spin-half.conjugacy-lambda-self",
                "charge conjugation leaves the self-conjugate lambda family fixed "
                "(eigenvalue +1 at zero conjugation phase, both bases, both indices)",
                _chk_conjugacy("lambda-self", _lambda_of("S"), 1)),
        _vanish("spin-half.conjugacy-lambda-anti",
                "charge conjugation negates the anti-self-conjugate lambda family",
                _chk_conjugacy("lambda-anti", _lambda_of("A"), -1)),
        _vanish("spin-half.conjugacy-rho-self",
                "charge conjugation leaves the self-conjugate rho family fixed",
                _chk_conjugacy("rho-self", _rho_of("S"), 1)),
        _vanish("spin-half.conjugacy-rho-anti",
                "charge conjugation negates the anti-self-conjugate rho family",
                _chk_conjugacy("rho-anti", _rho_of("A"), -1)),
        _vanish("spin-half.rest-forms",
                "rest-frame lambda/rho components equal the exact 0/+-1/+-i patterns "
                "times sqrt(m/2)", _chk_rest_forms, sampler="fixed-masses"),
        _vanish("spin-half.boost-consistency",
                "block-diagonal half boosts applied to the rest spinors reproduce the "
                "closed-form boosted family with global phase exactly one",
                _chk_boost_consistency),
        CheckSpec("spin-half.rest-limit",
                  "closed-form spinors at |p| <= 1e-8 m agree with the rest forms",
                  "fixed-masses", _TOL["rest_limit"], "vanish", _chk_rest_limit),
        _vanish("spin-half.parity-spinorial",
                "space inversion maps the fixed-axis lambdas onto +-i times the "
                "index-flipped member of the same kind", _chk_parity_spinorial),
        _vanish("spin-half.parity-helicity",
                "angle-substitution images of the helicity 2-spinors and of their "
                "Wigner-conjugates carry the stated -i/+i phase factors",
                _chk_parity_helicity, sampler="angles-and-phases"),
        _vanish("spin-half.index-flip-unitary",
                "the unitary connection maps the up helicity 2-spinor to the down one "
                "and back via its adjoint", _chk_index_flip_unitary,
                sampler="angles-and-phases"),
        _floor("spin-half.helicity-noneigen",
               "no lambda spinor is a helicity eigenstate at generic momentum",
               _chk_helicity_noneigen),
        _vanish("spin-half.chiral-helicity-eigen",
                "every helicity-family lambda/rho spinor is a chiral-helicity "
                "eigenstate with eigenvalue +-1/2 (lambda up -> +1/2, rho up -> -1/2)",
                _chk_chiral_helicity_eigen),
        _vanish("spin-half.dirac-eigen",
                "particle/antiparticle spinors solve their first-order equations in "
                "both bases", _chk_dirac_eigen),
        _vanish("spin-half.bar-norms",
                "invariant pairings: lambda self-pairings vanish, Dirac norms are "
                "+-2m, the lambda cross pairing has modulus m and phase -i",
                _chk_bar_norms),
    ]

    symmetry = [
        _vanish("symmetry.c-squared",
                "charge conjugation squares to +1 on four-spinors for every "
                "conjugation phase", _chk_c_squared, sampler="random-vectors",
                tol_key="tight"),
        _vanish("symmetry.c-chirality-anticommute",
                "charge conjugation anticommutes with chirality including the "
                "antilinear bookkeeping", _chk_c_chirality_anticommute,
                sampler="random-vectors", tol_key="tight"),
        _vanish("symmetry.c-maps-dirac-across",
                "charge conjugation maps particle spinors into the antiparticle span "
                "and back", _chk_c_maps_dirac),
        _vanish("symmetry.parity-dirac",
                "space inversion fixes particle spinors, negates antiparticle ones, "
                "and squares to +1", _chk_parity_dirac),
        _vanish("symmetry.parity-involution",
                "momentum reflection is an exact involution and maps the polar angles "
                "as theta -> pi - theta, phi -> pi + phi", _chk_parity_involution,
                tol_key="on_shell"),
        _vanish("symmetry.helicity-spectrum",
                "the helicity operator has eigenvalues {+1/2, +1/2, -1/2, -1/2}",
                _chk_helicity_spectrum),
        _vanish("symmetry.helicity-parity-anticommute",
                "helicity anticommutes with space inversion on helicity-basis states",
                _chk_helicity_parity_anticommute),
        _vanish("symmetry.chain-determinants",
                "the diagonalising rotation has determinant +1 and the two "
                "permutations have determinant -1", _chk_chain_determinants),
        _vanish("symmetry.chain-unitarity",
                "all three basis-rotation matrices are unitary after normalisation",
                _chk_chain_unitarity),
        _vanish("symmetry.chain-helicity",
                "conjugating helicity by the rotation diagonalises it, and the first "
                "permutation carries it to half the chirality matrix",
                _chk_chain_helicity),
        _vanish("symmetry.chain-chiral-helicity",
                "conjugating the doubled sigma.n by the rotation and the second "
                "permutation yields the chirality matrix", _chk_chain_chiral_helicity),
        _vanish("symmetry.xi-intertwines",
                "the 2x2 conjugation intertwiner relates both half boosts to their "
                "complex conjugates with deterministic normalisation",
                _chk_xi_intertwines, tol_key="intertwiner"),
        _vanish("symmetry.lambda-transforms",
                "the four block transforms built from the intertwiner map the "
                "self-conjugate lambdas onto " + _TRANSFORM_TARGETS,
                _chk_lambda_transforms),
        _vanish("symmetry.lambda-transform-conjugacy",
                "the four block transforms keep their images self-conjugate",
                _chk_lambda_transform_conjugacy),
        _vanish("symmetry.lambda-transform-involution",
                "the first block transform composed with its conjugate is the "
                "identity", _chk_lambda_transform_involution),
        _vanish("symmetry.chiral-gauge-unitary",
                "the axial phase transforms are unitary and reduce to the identity at "
                "zero angle", _chk_chiral_gauge_unitary, sampler="angles"),
        _vanish("symmetry.chiral-gauge-conjugacy",
                "axial phase transforms preserve self/anti-self conjugacy of both "
                "families", _chk_chiral_gauge_conjugacy),
        CheckSpec("symmetry.su2-closure",
                  "the doublet phase transforms close under composition (abelian "
                  "subgroup law and generic unitary products)", "random-group-elements",
                  _TOL["tight"], "vanish", _chk_su2_closure),
        CheckSpec("symmetry.cp-dirac",
                  "conjugation and inversion anticommute on particle/antiparticle "
                  "states (real intrinsic inversion phase)", "momenta",
                  _TOL["identity"], "classify", _chk_cp_dirac,
                  expected_relation="anticommute"),
        CheckSpec("symmetry.cp-elko",
                  "conjugation and inversion commute on the self/anti-self conjugate "
                  "states (imaginary intrinsic inversion phase; inversion image is "
                  "-+i times the opposite kind)", "momenta",
                  _TOL["identity"], "classify", _chk_cp_elko,
                  expected_relation="commute"),
        _vanish("symmetry.composition-associativity",
                "operator composition is associative and the antilinear flag xors",
                _chk_composition_associativity, sampler="random-operator-triples",
                tol_key="tight"),
    ]

    dynamics = [
        _vanish("dynamics.convention",
                "exactly one plane-wave frequency assignment solves all four coupled "
                "equations, stable across sample sizes", _chk_convention),
        _vanish("dynamics.coupled-system",
                "all four coupled first-order equations vanish under the discovered "
                "convention at every sampled momentum", _chk_coupled),
        CheckSpec("dynamics.wrong-convention",
                  "flipping the frequency assignment leaves a residual above half the "
                  "mass in at least one coupled equation", "momenta",
                  _TOL["floor_mass"], "exceed-floor", _chk_wrong_convention),
        _vanish("dynamics.clifford-square",
                "the momentum-space kinetic matrix squares to m^2",
                _chk_clifford_square),
        _vanish("dynamics.markov",
                "sum/difference superpositions of opposite-mass-sign solutions satisfy "
                "the cross-coupled pair, lie in the particle/antiparticle span, and "
                "the map is an isometry", _chk_markov),
        _vanish("dynamics.sen-gupta-dirac-limit",
                "the two-mass operator reduces to the standard one at zero "
                "pseudoscalar mass", _chk_sen_gupta_dirac_limit),
        _vanish("dynamics.sen-gupta-null-dim",
                "on the generalised shell p^2 = m1^2 - m2^2 the two-mass operator has "
                "a two-dimensional solution space", _chk_sen_gupta_null_dim,
                sampler="random-shell-momenta"),
        _vanish("dynamics.sen-gupta-off-shell",
                "off the generalised shell the two-mass operator has an empty null "
                "space", _chk_sen_gupta_off_shell, sampler="random-shell-momenta"),
        _vanish("dynamics.sen-gupta-equivalence",
                "the axial equivalence transform carries two-mass solutions to "
                "standard solutions of mass sqrt(m1^2 - m2^2)",
                _chk_sen_gupta_equivalence, sampler="random-shell-momenta"),
        _floor("dynamics.sen-gupta-massless",
               "with vanishing scalar mass the null vectors are not eigenstates of "
               "the doubled sigma.n matrix", _chk_sen_gupta_massless,
               sampler="random-shell-momenta"),
        _vanish("dynamics.eight-component",
                "the eight-component operator annihilates both stacks, its axial "
                "matrix squares to one and commutes with the kinetic block",
                _chk_eight_component),
        _vanish("dynamics.eight-gauge",
                "axial gauge transforms map eight-component solutions to solutions",
                _chk_eight_gauge, sampler="momenta-and-angles"),
        _vanish("dynamics.mass-term-chiral",
                "the mass pairing is invariant under axial phase transforms and "
                "vanishes on the physical quartet", _chk_mass_term_chiral,
                sampler="momenta-and-fields"),
        _vanish("dynamics.mass-term-su2",
                "the doublet mass pairing is invariant under common SU(2) phase "
                "rotations", _chk_mass_term_su2, sampler="momenta-and-fields"),
        _vanish("dynamics.mass-term-real",
                "the mass pairing is real for arbitrary field configurations",
                _chk_mass_term_real, sampler="random-vectors"),
    ]

    spin_one = [
        _vanish("spin-one.wigner-property",
                "the 3x3 Wigner matrix is real orthogonal symmetric, squares to +1 "
                "and conjugates every generator to minus its conjugate",
                _chk_wigner_one, sampler="fixed", tol_key="tight"),
        _vanish("spin-one.c-squared-minus-one",
                "the six-component conjugation squares to -1 for every phase",
                _chk_sc_squared, sampler="random-vectors", tol_key="tight"),
        _vanish("spin-one.block-swap-squared",
                "the linear block swap squares to +1 at zero phase",
                _chk_ss_squared, sampler="random-vectors", tol_key="tight"),
        _vanish("spin-one.twist-squared",
                "the chirality-twisted conjugation squares to +1 and the chirality "
                "matrix anticommutes with the conjugation block",
                _chk_g5sc_squared, sampler="random-vectors", tol_key="tight"),
        CheckSpec("spin-one.twisted-conjugacy-zeta",
                  "the chirality-twisted conjugacy requirement is satisfied exactly "
                  "at zeta = +1 (self) and zeta = -1 (anti-self) for all helicities, "
                  "both constructions, at rest and boosted", "momenta-and-zeta",
                  _TOL["zeta_minimum"], "vanish", _chk_zeta_minima),
        _floor("spin-one.bare-conjugacy-floor",
               "no unit-circle zeta makes a six-spinor self or anti-self conjugate "
               "under the bare conjugation", _chk_bare_conjugacy_floor,
               sampler="momenta-and-zeta"),
        _vanish("spin-one.zeta-boost-persistence",
                "the rest-frame zeta values keep solving the twisted conjugacy at "
                "every boosted momentum", _chk_zeta_boost_persistence),
        CheckSpec("spin-one.scan-phase-covariance",
                  "shifting the conjugation phase rotates the optimal zeta by the "
                  "same phase", "fixed", 1e-3, "vanish", _chk_scan_phase_covariance),
        _vanish("spin-one.boost-closed-form",
                "the closed-form spin-1 boost equals its 20-term exponential series",
                _chk_boost_one_closed_form),
        _vanish("spin-one.boost-z-eigen",
                "a z boost with E/m = 2 acts diagonally with factors 2 +- sqrt(3) "
                "and 1; the rest boost is the identity", _chk_boost_one_z_eigen,
                sampler="fixed"),
    ]

    registry = {
        "spin-half": spin_half,
        "symmetry": symmetry,
        "dynamics": dynamics,
        "spin-one": spin_one,
    }

    # anti-drift guard: anchors must be nonempty and unique across the board
    anchors = [c.anchor for checks in registry.values() for c in checks]
    ids = [c.id for checks in registry.values() for c in checks]
    if any(not a for a in anchors) or len(set(anchors)) != len(anchors):
        raise UsageError("check anchors must be nonempty and unique")
    if len(set(ids)) != len(ids):
        raise UsageError("check ids must be unique")
    return registry


_REGISTRY = _build_registry()


def suite_checks(name: str):
    if name == "all":
        return [c for key in SUITE_NAMES for c in _REGISTRY[key]]
    if name not in _REGISTRY:
        raise UsageError(f"unknown suite {name!r}; choose from {('all',) + SUITE_NAMES}")
    return list(_REGISTRY[name])


def run_suite(name: str, seed: int, samples: int,
              force_convention: str | None = None) -> VerificationReport:
    """Execute every check of the named suite deterministically."""
    if samples < 1:
        raise UsageError("samples must be >= 1")
    checks = suite_checks(name)
    force = None
    if force_convention is not None:
        if force_convention not in ("+", "-"):
            raise UsageError("force_convention must be '+' or '-'")
        force = dyn.FrequencyConvention(1 if force_convention == "+" else -1)
    ctx = RunContext(seed, samples, force)

    outcomes = []
    for check in sorted(checks, key=lambda c: c.id):
        try:
            residual, constants = check.run(ctx)
            status = "pass" if check.passes(residual, constants) else "fail"
        except Exception as exc:  # one broken check must not stop the run
            residual, constants, status = math.nan, {"error": f"{type(exc).__name__}: {exc}"}, "error"
        outcomes.append(CheckOutcome(check.id, check.anchor, status,
                                     float(residual), ctx.samples, constants))
    passed = sum(1 for o in outcomes if o.status == "pass")
    try:
        convention = "+" if ctx.convention().sign > 0 else "-"
    except ElkoError:
        convention = "?"
    return VerificationReport(
        suite=name, seed=ctx.seed, samples=ctx.samples, convention=convention,
        resamples=ctx.resamples, checks=outcomes,
        summary={"total": len(outcomes), "passed": passed,
                 "failed": len(outcomes) - passed},
    )


def diff_reports(a: VerificationReport, b: VerificationReport, tol: float = 1e-6):
    """Ids whose status or measured constants differ beyond tolerance.

    Residual magnitudes are deliberately not compared, so reports from
    different seeds with equal statuses diff as empty.
    """
    if a.suite != b.suite:
        raise UsageError(f"cannot diff reports of suites {a.suite!r} and {b.suite!r}")
    by_id_a = {c.id: c for c in a.checks}
    by_id_b = {c.id: c for c in b.checks}
    drifted = set(by_id_a.keys()) ^ set(by_id_b.keys())
    for cid in set(by_id_a) & set(by_id_b):
        ca, cb = by_id_a[cid], by_id_b[cid]
        if ca.status != cb.status or _constants_differ(ca.constants, cb.constants, tol):
            drifted.add(cid)
    if a.convention != b.convention:
        drifted.add("dynamics.convention")
    return sorted(drifted)


def _constants_differ(ca: dict, cb: dict, tol: float) -> bool:
    if set(ca) != set(cb):
        return True
    for key, va in ca.items():
        vb = cb[key]
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            if abs(va - vb) > tol:
                return True
        elif isinstance(va, list) and isinstance(vb, list):
            if len(va) != len(vb) or any(
                    abs(x - y) > tol for x, y in zip(va, vb)
                    if isinstance(x, (int, float)) and isinstance(y, (int, float))):
                return True
        elif va != vb:
            return True
    return False
