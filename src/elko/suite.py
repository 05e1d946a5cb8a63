"""Named, seeded, tolerance-tagged verification checks and the structured
report they produce.

Each check is one row written beside the measurement it runs (``@check``).
A suite run seeds each check's draws by the run seed and the check's id,
executes every check, and assembles a ``VerificationReport`` whose JSON
serialisation is byte-stable for a fixed (suite, seed, samples).  Checks
evaluate their identity as whole-array residuals over a ``MomentumBatch``
and return the rows; ``CheckSpec.reduce`` takes the largest entry (for
floors, the smallest), and a NaN entry gives a NaN residual, which fails.
A check that raises is reported with status ``error`` and counts as failed.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import zlib
from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .config import SUITE_NAMES, TOLERANCES
from .errors import ElkoError, UsageError
from . import dynamics as dyn
from . import kinematics as kin
from . import matrices as mat
from . import operators as ops
from . import spin_one as s1
from . import spinors as sp


# The convention check's id: the run's convention probe draws from this
# stream, and a changed convention shows up in a diff under this id.
_CONVENTION = "dynamics.convention"
_DRIFT_TOL = 1e-6   # measured constants further apart than this have drifted


# ---------------------------------------------------------------------------
# sampling, specs and reports
# ---------------------------------------------------------------------------

class RunContext:
    """Per-run state: seed, sample count, convention, resample counter (0:
    the sampler keeps every row it draws; the report still carries it)."""

    def __init__(self, seed: int, samples: int, force_convention=None):
        self.seed = int(seed)
        self.samples = int(samples)
        self.force_convention = force_convention
        self.resamples = 0
        self._convention = None

    def rng(self, check_id: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(check_id.encode())])

    def momenta(self, check_id: str, n=None) -> kin.MomentumBatch:
        """n (default: the sample count) random on-shell momenta from the
        check's stream, as ``kinematics.sample_momenta`` draws them."""
        return kin.sample_momenta(self.rng(check_id), self.samples if n is None else n)

    def convention(self) -> dyn.FrequencyConvention:
        if self.force_convention is not None:
            return self.force_convention
        if self._convention is None:
            probe = self.momenta(_CONVENTION, n=max(1, min(self.samples, 16)))
            self._convention = dyn.discover_convention(probe)
        return self._convention


@dataclass(frozen=True)
class CheckSpec:
    """One verifiable identity: id, human anchor, tolerance, expectation
    semantics and the callable that measures it."""

    id: str
    anchor: str
    tolerance: float
    expectation: str                     # vanish | exceed-floor
    run: Callable[[RunContext], tuple]   # ctx -> (rows, constants), one call per check

    def reduce(self, rows) -> float:
        """The residual of the check's rows (arrays or scalars): the largest
        entry, or the smallest for a floor; 0.0 (+inf for a floor) without
        entries.  NaN anywhere gives NaN."""
        fold, empty = ((np.minimum, math.inf) if self.expectation == "exceed-floor"
                       else (np.maximum, 0.0))
        return float(fold.reduce([fold.reduce(r, axis=None, initial=empty) for r in rows],
                                 initial=empty))

    def passes(self, residual: float) -> bool:
        floor = self.expectation == "exceed-floor"
        return residual > self.tolerance if floor else residual <= self.tolerance


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

    # the field names of this class and of CheckOutcome are the JSON schema;
    # json.dumps reads the fields in place, without asdict's deep copy
    def to_json(self) -> str:
        fields = {**vars(self), "checks": [vars(c) for c in self.checks]}
        return json.dumps(fields, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        data = json.loads(text)
        data["checks"] = [CheckOutcome(**c) for c in data["checks"]]
        return VerificationReport(**data)

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0


_REGISTRY: dict[str, list[CheckSpec]] = {name: [] for name in SUITE_NAMES}


def suite_checks(name: str):
    if name == "all":
        return [c for key in SUITE_NAMES for c in _REGISTRY[key]]
    if name not in _REGISTRY:
        raise UsageError(f"unknown suite {name!r}; choose from {('all',) + SUITE_NAMES}")
    return list(_REGISTRY[name])


def check(id_: str, anchor: str, tol: str = "identity", expect: str = "vanish", **params):
    """Register the decorated measurement as one check of the suite named
    by the id's prefix.  It is called as ``fn(ctx, key, **params)`` and
    returns (rows, constants): a list of residual rows (arrays or scalars;
    a 0/1 row for a condition that must hold) for ``CheckSpec.reduce``, and
    a dict of measured constants.  ``key`` is the id, which names the random
    stream it draws from.  ``ctx.rng(key)`` and ``ctx.momenta(key)`` start
    from the same bits, so a check that draws parameters beside its momenta
    draws them from a derived key such as ``key + "-angles"``.  ``tol`` is a
    key of ``TOLERANCES``; ``expect`` is ``vanish`` (pass at or below it)
    or ``exceed-floor`` (pass above it).  Checks stacked on one measurement
    differ in their ``params``."""
    if expect not in ("vanish", "exceed-floor"):
        raise UsageError(f"check {id_!r}: unknown expectation {expect!r}")

    def register(fn):
        # anti-drift guard: ids and anchors are nonempty and unique across the board
        if not anchor or any(s.id == id_ or s.anchor == anchor for s in suite_checks("all")):
            raise UsageError(f"check {id_!r}: ids and anchors must be nonempty and unique")
        _REGISTRY[id_.partition(".")[0]].append(CheckSpec(
            id_, anchor, TOLERANCES[tol], expect, lambda ctx: fn(ctx, id_, **params)))
        return fn

    return register


# ---------------------------------------------------------------------------
# residual helpers
# ---------------------------------------------------------------------------

def _c(z: complex):
    """Deterministic JSON encoding of a complex constant: [re, im] rounded."""
    return [round(float(np.real(z)), 9), round(float(np.imag(z)), 9)]


def _rel(r, v):
    """Row norms of (N, k) vectors r relative to those of v."""
    return mat.rownorm(r) / mat.rownorm(v)


def _unit(v):
    return v / mat.rownorm(v)[..., None]


def _moving(momenta):
    """The rows with a defined direction (|p| > 0)."""
    return momenta[momenta.p_abs > 0.0]


def _gaussian(rng, count: int, n: int):
    """(count, n) standard complex Gaussian rows from one normal draw of
    shape (count, 2, n)."""
    g = rng.normal(size=(count, 2, n))
    return g[:, 0] + 1j * g[:, 1]


def _su2_elements(rng, k: int):
    """k random doublet phase transforms cos(phi) + i sin(phi) tau.n, as
    (k, 2, 2)."""
    phi = rng.uniform(0, 2 * math.pi, k)
    n = _unit(rng.normal(size=(k, 3)))
    return ops.su2_phase_transform(np.cos(phi), n * np.sin(phi)[:, None])


# ---------------------------------------------------------------------------
# the checks, one row each, grouped by suite: spin-half, symmetry, dynamics,
# spin-one
# ---------------------------------------------------------------------------

# (rest spinor, boosted components, rest patterns) per family
_FAMILIES = ((sp.rest_lambda, sp.lambda_components, sp.REST_LAMBDA_PATTERNS),
             (sp.rest_rho, sp.rho_components, sp.REST_RHO_PATTERNS))


@check("spin-half.conjugacy-lambda-self", "charge conjugation leaves the self-conjugate lambda "
       "family fixed (eigenvalue +1 at zero conjugation phase, both bases, both indices)",
       family=sp.lambda_components, kind="S")
@check("spin-half.conjugacy-lambda-anti", "charge conjugation negates the anti-self-conjugate "
       "lambda family", family=sp.lambda_components, kind="A")
@check("spin-half.conjugacy-rho-self", "charge conjugation leaves the self-conjugate rho "
       "family fixed", family=sp.rho_components, kind="S")
@check("spin-half.conjugacy-rho-anti", "charge conjugation negates the anti-self-conjugate "
       "rho family", family=sp.rho_components, kind="A")
def _conjugacy(ctx, key, family, kind):
    sign = 1 if kind == "S" else -1
    rows = []
    momenta = ctx.momenta(key)
    rng = ctx.rng(key + "-phases")
    thetas = [0.0, math.pi / 2, math.pi, float(rng.uniform(0, 2 * math.pi))]
    for index, basis in itertools.product(sp.INDICES, sp.BASES):
        v = family(momenta, kind, index, basis)
        scale = mat.rownorm(v)
        for theta_c in thetas:
            c_op = ops.charge_conjugation(sp.PhaseConfig(theta_c=theta_c))
            expected = sign * cmath.exp(1j * theta_c)
            rows.append(mat.rownorm(c_op.apply(v) - expected * v) / scale)
    return rows, {"eigenvalue-sign": sign}


@check("spin-half.rest-forms", "rest-frame lambda/rho components equal the exact 0/+-1/+-i "
       "patterns times sqrt(m/2)")
def _rest_forms(ctx, key):
    return [np.linalg.norm(rest(kind, index, m).components - math.sqrt(m / 2.0) * pattern)
            for m, (rest, _, patterns) in itertools.product((0.5, 1.0, 2.0, 8.0), _FAMILIES)
            for (kind, index), pattern in patterns.items()], {}


@check("spin-half.boost-consistency", "block-diagonal half boosts applied to the rest spinors "
       "reproduce the closed-form boosted family with global phase exactly one")
def _boost_consistency(ctx, key):
    rows, phases = [], []
    momenta = ctx.momenta(key)
    b = kin.boost_half_pair(momenta)
    scale = mat.column(np.sqrt(momenta.m / 2.0))
    for kind, index, (_, closed_fn, patterns) in itertools.product(
            sp.KINDS_SELF, sp.INDICES, _FAMILIES):
        boosted = mat.matvec(b, scale * patterns[(kind, index)])
        closed = closed_fn(momenta, kind, index)
        phase = mat.vdot(closed, boosted) / mat.vdot(closed, closed)
        phases.append(phase)
        rows += [mat.rownorm(boosted - mat.column(phase) * closed), np.abs(np.abs(phase) - 1.0)]
    mean_phase = complex(np.mean(phases))
    return rows + [abs(mean_phase - 1.0)], {"global-phase": _c(mean_phase)}


@check("spin-half.rest-limit", "closed-form spinors at |p| <= 1e-8 m agree with the rest forms",
       "rest_limit")
def _rest_limit(ctx, key):
    near_rest = [kin.make_momentum(0.4e-8 * m, -0.6e-8 * m, 0.3e-8 * m, m) for m in (0.5, 1.0, 3.0)]
    return [np.linalg.norm(components(p, kind, index) - rest(kind, index, p.m).components)
            for p, kind, index, (rest, components, _) in itertools.product(
                near_rest, sp.KINDS_SELF, sp.INDICES, _FAMILIES)], {}


# Space-inversion phases of the fixed-axis family: lambda^S picks +i on
# index up -> down, -i on down -> up; lambda^A the opposite signs.
_PARITY_MAP = [("S", "up", "down", 1j), ("S", "down", "up", -1j),
               ("A", "up", "down", -1j), ("A", "down", "up", 1j)]


@check("spin-half.parity-spinorial", "space inversion maps the fixed-axis lambdas onto +-i "
       "times the index-flipped member of the same kind")
def _parity_spinorial(ctx, key):
    momenta = ctx.momenta(key)
    pr = kin.parity_reflect(momenta)
    rows = [mat.rownorm(mat.matvec(mat.gamma0, sp.lambda_components(pr, kind, src))
                        - coeff * sp.lambda_components(momenta, kind, dst))
            for kind, src, dst, coeff in _PARITY_MAP]
    return rows, {"coefficients": [_c(c) for *_, c in _PARITY_MAP]}


def _angles_and_phases(ctx, key):
    """Per sample a polar angle in [0, pi), then an azimuth and two phases
    in [0, 2 pi), drawn in that order; four (samples,) arrays."""
    return ctx.rng(key).uniform(0, [math.pi] + [2 * math.pi] * 3, (ctx.samples, 4)).T


@check("spin-half.parity-helicity", "angle-substitution images of the helicity 2-spinors and "
       "of their Wigner-conjugates carry the stated -i/+i phase factors")
def _parity_helicity(ctx, key):
    th, ph, t1, t2 = _angles_and_phases(ctx, key)
    fp, fm = (sp.helicity_components(th, ph, h, t1, t2) for h in (1, -1))
    rfp, rfm = (sp.helicity_components(math.pi - th, math.pi + ph, h, t1, t2) for h in (1, -1))
    wrfp, wrfm = (mat.matvec(mat.theta_half, np.conj(f)) for f in (rfp, rfm))
    return [mat.rownorm(rfm - (-1j) * mat.column(np.exp(1j * (t2 - t1))) * fp),
            mat.rownorm(rfp - (-1j) * mat.column(np.exp(1j * (t1 - t2))) * fm),
            mat.rownorm(wrfm - (-1j) * mat.column(np.exp(-2j * t2)) * fm),
            mat.rownorm(wrfp - (1j) * mat.column(np.exp(-2j * t1)) * fp)], {}


@check("spin-half.index-flip-unitary", "the unitary connection maps the up helicity 2-spinor "
       "to the down one and back via its adjoint")
def _index_flip_unitary(ctx, key):
    th, ph, al, be = _angles_and_phases(ctx, key)
    up = sp.helicity_components(th, ph, 1, theta1=al)
    down = sp.helicity_components(th, ph, -1, theta2=be)
    u = sp.index_flip_unitary(ph, al, be)
    return [mat.rownorm(mat.matvec(u, up) - down),
            mat.rownorm(mat.matvec(mat.adjoint(u), down) - up),
            mat.rownorm(u @ mat.adjoint(u) - np.eye(2), matrix=True)], {}


@check("spin-half.helicity-noneigen", "no lambda spinor is a helicity eigenstate at generic "
       "momentum", "floor", "exceed-floor")
def _helicity_noneigen(ctx, key):
    rows = []
    momenta = _moving(ctx.momenta(key))
    h_op = ops.helicity_operator(momenta)
    # the fixed-axis family only counts off the coordinate planes
    generic = np.all(np.abs(momenta.vec) > 1e-9, axis=-1)
    for (basis, counted), k, i in itertools.product(
            (("helicity", slice(None)), ("spinorial", generic)), sp.KINDS_SELF, sp.INDICES):
        v = _unit(sp.lambda_components(momenta, k, i, basis))
        hv = h_op.apply(v)
        rows.append(mat.rownorm(hv - mat.column(mat.vdot(v, hv)) * v)[counted])
    return rows, {}


@check("spin-half.chiral-helicity-eigen", "every helicity-family lambda/rho spinor is a "
       "chiral-helicity eigenstate with eigenvalue +-1/2 (lambda up -> +1/2, rho up -> -1/2)")
def _chiral_helicity_eigen(ctx, key):
    momenta = _moving(ctx.momenta(key))
    eta = ops.chiral_helicity_operator(momenta)
    rows = []
    for index, (family, (_, components, _)) in itertools.product(
            sp.INDICES, zip(("lambda", "rho"), _FAMILIES)):
        v = _unit(components(momenta, "S", index, "helicity"))
        rows.append(mat.rownorm(eta.apply(v) - 0.5 * sp.chiral_helicity_sign(family, index) * v))
    return rows, {"lambda-up": 0.5, "rho-up": -0.5}


@check("spin-half.dirac-eigen", "particle/antiparticle spinors solve their first-order "
       "equations in both bases")
def _dirac_eigen(ctx, key):
    momenta = ctx.momenta(key)
    gp = dyn.dirac_matrix(momenta)
    m = mat.column(momenta.m)
    rows = []
    for basis, index in itertools.product(sp.BASES, sp.INDICES):
        u = sp.dirac_components(momenta, "particle", index, basis)
        v = sp.dirac_components(momenta, "antiparticle", index, basis)
        rows += [_rel(mat.matvec(gp, u) - m * u, u), _rel(mat.matvec(gp, v) + m * v, v)]
    return rows, {}


@check("spin-half.bar-norms", "invariant pairings: lambda self-pairings vanish, Dirac norms "
       "are +-2m, the lambda cross pairing has modulus m and phase -i")
def _bar_norms(ctx, key):
    momenta = ctx.momenta(key)
    m = momenta.m
    lu, ld = (sp.lambda_components(momenta, "S", index) for index in sp.INDICES)
    u = sp.dirac_components(momenta, "particle", "up")
    v = sp.dirac_components(momenta, "antiparticle", "down")
    cross = sp.bar_product(lu, ld) / m
    mean_cross = complex(np.mean(cross))
    return [np.abs(sp.bar_product(lu, lu)) / m, np.abs(sp.bar_product(u, u) - 2 * m) / m,
            np.abs(sp.bar_product(v, v) + 2 * m) / m, np.abs(np.abs(cross) - 1.0),
            abs(mean_cross - (-1j))], {"lambda-cross-phase": _c(mean_cross)}


@check("symmetry.c-squared", "charge conjugation squares to +1 on four-spinors for every "
       "conjugation phase", "tight")
def _c_squared(ctx, key):
    rng = ctx.rng(key)
    rows = []
    for theta_c in (0.0, math.pi / 2, math.pi, float(rng.uniform(0, 2 * math.pi))):
        c_op = ops.charge_conjugation(sp.PhaseConfig(theta_c=theta_c))
        v = _gaussian(rng, 8, 4)
        rows.append(_rel(c_op.compose(c_op).apply(v) - v, v))
    return rows, {}


@check("symmetry.c-chirality-anticommute", "charge conjugation anticommutes with chirality "
       "including the antilinear bookkeeping", "tight")
def _c_chirality_anticommute(ctx, key):
    c_op, g5_op = ops.charge_conjugation(), ops.chirality()
    v = _gaussian(ctx.rng(key), max(8, ctx.samples), 4)
    return [_rel(c_op.compose(g5_op).apply(v) + g5_op.compose(c_op).apply(v), v)], {}


def _span_residual(basis, x):
    """Row-wise distance of x, (N, 4) or stacked (..., N, 4), from the column
    span of basis (N, 4, k), relative to |x|: each column is made
    orthonormal to the ones before it and projected out of x in turn
    (modified Gram-Schmidt), as whole-array operations."""
    r, done = x, []
    for q in np.moveaxis(basis, -1, 0):
        for prev in done:
            q = q - mat.column(mat.vdot(prev, q)) * prev
        q = q / mat.column(mat.rownorm(q))
        r = r - mat.column(mat.vdot(q, r)) * q
        done.append(q)
    return mat.rownorm(r) / mat.rownorm(x)


@check("symmetry.c-maps-dirac-across", "charge conjugation maps particle spinors into the "
       "antiparticle span and back")
def _c_maps_dirac(ctx, key):
    c_op = ops.charge_conjugation()
    momenta = ctx.momenta(key)
    us, vs = ([sp.dirac_components(momenta, sign, i) for i in sp.INDICES]
              for sign in ("particle", "antiparticle"))
    return [_span_residual(np.stack(vs, axis=-1), c_op.apply(np.stack(us))),
            _span_residual(np.stack(us, axis=-1), c_op.apply(np.stack(vs)))], {}


@check("symmetry.parity-dirac", "space inversion fixes particle spinors, negates antiparticle "
       "ones, and squares to +1")
def _parity_dirac(ctx, key):
    p_op = ops.parity_operator()
    # P^2 = +1 via double reflection
    pp = p_op.compose(p_op)
    momenta = ctx.momenta(key)
    rows = []
    for index, (op, sign, eigenvalue) in itertools.product(sp.INDICES, (
            (p_op, "particle", 1), (p_op, "antiparticle", -1), (pp, "particle", 1))):
        state = functools.partial(sp.dirac_components, sign=sign, index=index)
        x = state(momenta)
        rows.append(_rel(op.apply_state(state, momenta) - eigenvalue * x, x))
    return rows, {}


@check("symmetry.parity-involution", "momentum reflection is an exact involution and maps the "
       "polar angles as theta -> pi - theta, phi -> pi + phi", "on_shell")
def _parity_involution(ctx, key):
    p = ctx.momenta(key)
    q = kin.parity_reflect(kin.parity_reflect(p))
    moving = _moving(p)
    (c, s, phi), (cr, sr, phir) = moving.half_angles, kin.parity_reflect(moving).half_angles
    # on the frames the factories read, cos(theta/2) and sin(theta/2) swap, phi turns by pi
    return [np.abs(q.vec - p.vec), np.abs(q.E - p.E), np.abs(cr - s), np.abs(sr - c),
            np.abs((phir - phi) % (2 * math.pi) - math.pi)], {}


@check("symmetry.helicity-spectrum", "the helicity operator has eigenvalues "
       "{+1/2, +1/2, -1/2, -1/2}")
def _helicity_spectrum(ctx, key):
    momenta = _moving(ctx.momenta(key))
    eigs = np.sort(np.linalg.eigvalsh(ops.helicity_operator(momenta).matrix), axis=-1)
    return [mat.rownorm(eigs - np.array([-0.5, -0.5, 0.5, 0.5]))], {}


@check("symmetry.helicity-parity-anticommute", "helicity anticommutes with space inversion on "
       "helicity-basis states")
def _helicity_parity_anticommute(ctx, key):
    momenta = _moving(ctx.momenta(key))
    pr = kin.parity_reflect(momenta)
    h_here = ops.helicity_operator(momenta).matrix
    h_there = ops.helicity_operator(pr).matrix
    rows = []
    for kind, index in itertools.product(sp.KINDS_SELF, sp.INDICES):
        x = sp.lambda_components(pr, kind, index, "helicity")
        rows.append(_rel(mat.matvec(h_here, mat.matvec(mat.gamma0, x))
                         + mat.matvec(mat.gamma0, mat.matvec(h_there, x)), x))
    return rows, {}


@check("symmetry.chain-determinants", "the diagonalising rotation has determinant +1 and the "
       "two permutations have determinant -1")
def _chain_determinants(ctx, key):
    u = ops.u1(_moving(ctx.momenta(key)))
    return ([np.abs(np.linalg.det(u) - 1.0), abs(np.linalg.det(ops.u2()) + 1.0),
             abs(np.linalg.det(ops.u3()) + 1.0)], {"det-u1": 1.0, "det-u2": -1.0, "det-u3": -1.0})


@check("symmetry.chain-unitarity", "all three basis-rotation matrices are unitary after "
       "normalisation")
def _chain_unitarity(ctx, key):
    eye = np.eye(4)
    u = ops.u1(_moving(ctx.momenta(key)))
    return [mat.rownorm(u @ mat.adjoint(u) - eye, matrix=True),
            *(np.linalg.norm(u @ mat.adjoint(u) - eye) for u in (ops.u2(), ops.u3()))], {}


@check("symmetry.chain-helicity", "conjugating helicity by the rotation diagonalises it, and "
       "the first permutation carries it to half the chirality matrix")
def _chain_helicity(ctx, key):
    target_half = 0.5 * mat.block_diag2(mat.sigma_z, mat.sigma_z)
    momenta = _moving(ctx.momenta(key))
    u = ops.u1(momenta)
    conj1 = u @ ops.helicity_operator(momenta).matrix @ mat.adjoint(u)
    return [mat.rownorm(conj1 - target_half, matrix=True),
            mat.rownorm(mat.matmat(mat.matmat(ops.u3(), conj1), mat.adjoint(ops.u3()))
                        - 0.5 * mat.gamma5, matrix=True)], {}


@check("symmetry.chain-chiral-helicity", "conjugating the doubled sigma.n by the rotation and "
       "the second permutation yields the chirality matrix")
def _chain_chiral_helicity(ctx, key):
    momenta = _moving(ctx.momenta(key))
    sn = mat.pauli_dot(*kin._unit(momenta))
    u = ops.u1(momenta)
    conj1 = u @ mat.block_diag2(sn, -sn) @ mat.adjoint(u)
    conj2 = mat.matmat(mat.matmat(ops.u2(), conj1), mat.adjoint(ops.u2()))
    return [mat.rownorm(conj2 - mat.gamma5, matrix=True)], {}


@check("symmetry.xi-intertwines", "the 2x2 conjugation intertwiner relates both half boosts to "
       "their complex conjugates with deterministic normalisation", "intertwiner")
def _xi_intertwines(ctx, key):
    momenta = _moving(ctx.momenta(key))
    xi = ops.xi_matrix(momenta)
    rows = [np.abs(mat.rownorm(xi, matrix=True) - 1.0)]
    for side in ("R", "L"):
        resid, norm = kin._intertwiner_residual(xi, momenta, side)
        rows.append(resid / (2.0 * norm))
    return rows, {}


@check("symmetry.lambda-transforms", "the four block transforms built from the intertwiner map "
       "the self-conjugate lambdas onto conj-anti, -i conj-self, i gamma0 conj-anti, gamma0 "
       "conj-self")
def _lambda_transforms(ctx, key):
    """No moving row gives no mean row and no ``coefficient-k`` constants,
    so ``elko diff`` flags the check rather than compare an invented value."""
    rows = []
    coeffs = [[], [], [], []]
    momenta = _moving(ctx.momenta(key))
    transforms = ops.lambda_basis_transforms(momenta)
    for index in sp.INDICES:
        ls, la = (sp.lambda_components(momenta, kind, index, "helicity") for kind in "SA")
        targets = [np.conj(la), -1j * np.conj(ls), 1j * mat.matvec(mat.gamma0, np.conj(la)),
                   mat.matvec(mat.gamma0, np.conj(ls))]
        for k, (t, target) in enumerate(zip(transforms, targets)):
            img = mat.matvec(t, ls)
            c = mat.vdot(target, img) / mat.vdot(target, target)
            coeffs[k].append(c)
            rows += [_rel(img - mat.column(c) * target, ls), np.abs(np.abs(c) - 1.0)]
    if not len(momenta):
        return rows, {}
    consts = {f"coefficient-{k+1}": _c(complex(np.mean(cs))) for k, cs in enumerate(coeffs)}
    # coefficient pattern (c, -ic, ic, c) with c real positive
    return rows + [abs(complex(np.mean(coeffs[0])) - 1.0)], consts


@check("symmetry.lambda-transform-conjugacy", "the four block transforms keep their images "
       "self-conjugate")
def _lambda_transform_conjugacy(ctx, key):
    c_op = ops.charge_conjugation()
    momenta = _moving(ctx.momenta(key))
    transforms = ops.lambda_basis_transforms(momenta)
    images = [mat.matvec(t, ls) for ls in (sp.lambda_components(momenta, "S", index, "helicity")
                                           for index in sp.INDICES) for t in transforms]
    return [_rel(c_op.apply(img) - img, img) for img in images], {}


@check("symmetry.lambda-transform-involution", "the first block transform composed with its "
       "conjugate is the identity")
def _lambda_transform_involution(ctx, key):
    t1 = ops.lambda_basis_transforms(_moving(ctx.momenta(key)))[0]
    return [mat.rownorm(t1 @ np.conj(t1) - np.eye(4), matrix=True)], {}


@check("symmetry.chiral-gauge-unitary", "the axial phase transforms are unitary and reduce to "
       "the identity at zero angle")
def _chiral_gauge_unitary(ctx, key):
    alphas = ctx.rng(key).uniform(0, 2 * math.pi, 20)
    gauges = [ops.chiral_gauge_transform(alphas, family) for family in ("lambda", "rho")]
    return [np.linalg.norm(ops.chiral_gauge_transform(0.0, "lambda") - np.eye(4)),
            *(mat.rownorm(g @ mat.adjoint(g) - np.eye(4), matrix=True) for g in gauges)], {}


@check("symmetry.chiral-gauge-conjugacy", "axial phase transforms preserve self/anti-self "
       "conjugacy of both families")
def _chiral_gauge_conjugacy(ctx, key):
    c_op = ops.charge_conjugation()
    momenta = ctx.momenta(key, n=min(ctx.samples, 20))
    alphas = ctx.rng(key + "-angles").uniform(0, 2 * math.pi, (5, len(momenta)))
    rows = []
    for family, components, kind, sign in (("lambda", sp.lambda_components, "S", 1),
                                           ("rho", sp.rho_components, "A", -1)):
        gauge = ops.chiral_gauge_transform(alphas, family)
        for index in sp.INDICES:
            v = mat.matvec(gauge, components(momenta, kind, index)).reshape(-1, 4)
            rows.append(_rel(c_op.apply(v) - sign * v, v))
    return rows, {}


@check("symmetry.su2-closure", "the doublet phase transforms close under composition "
       "(abelian subgroup law and generic unitary products)", "tight")
def _su2_closure(ctx, key):
    rng = ctx.rng(key)
    # abelian subgroup composition law
    a, b = rng.uniform(0, 2 * math.pi, (2, 10))
    za, zb, zab = (ops.su2_phase_transform(np.cos(t), np.outer(np.sin(t), [0, 0, 1]))
                   for t in (a, b, a + b))
    # generic closure: products stay unitary with unit-modulus determinant
    k = max(10, ctx.samples // 5)
    prod = _su2_elements(rng, k) @ _su2_elements(rng, k)
    return [mat.rownorm(za @ zb - zab, matrix=True),
            mat.rownorm(prod @ mat.adjoint(prod) - np.eye(2), matrix=True),
            np.abs(np.abs(np.linalg.det(prod)) - 1.0)], {}


@check("symmetry.cp-dirac", "conjugation and inversion anticommute on particle/antiparticle "
       "states (real intrinsic inversion phase)")
def _cp_dirac(ctx, key):
    # both cp checks probe the run seed's own stream, not one keyed by their id
    res = ops.classify_cp_action(kin.sample_momenta(np.random.default_rng(ctx.seed), ctx.samples),
                                 "spinorial", "dirac")
    constants = {"relation": res.relation,
                 "commute-residual": round(res.commute_residual, 6),
                 "anticommute-residual": round(res.anticommute_residual, 9)}
    separated = res.commute_residual > TOLERANCES["floor"]
    return [res.anticommute_residual, float(not separated),
            float(res.relation != "anticommute")], constants


# The inversion image substitutes (theta, phi) -> (pi - theta, pi + phi)
# into lambda^S.  The factory at Pp reads Pp's own frame instead, whose
# azimuth is folded onto [0, 2 pi) and is 0 on the exact z axis.  The two
# frames differ by a rotation about z through delta = phi(Pp) - (pi + phi),
# k half turns with k in {0, -1, -2}: the substituted spinor is the
# factory's times diag(e^{i delta/2}, e^{-i delta/2}) on both chiral
# blocks, here in exact units keyed by k.
_Z_HALF_TURNS = {0: np.ones(4), -1: np.array([-1j, 1j, -1j, 1j]), -2: -np.ones(4)}
mat.read_only(*_Z_HALF_TURNS.values())


@check("symmetry.cp-elko", "conjugation and inversion commute on the self/anti-self conjugate "
       "states (imaginary intrinsic inversion phase; inversion image is -+i times the opposite "
       "kind)")
def _cp_elko(ctx, key):
    res = ops.classify_cp_action(kin.sample_momenta(np.random.default_rng(ctx.seed), ctx.samples),
                                 "helicity", "elko")
    constants = {"relation": res.relation,
                 "commute-residual": round(res.commute_residual, 9),
                 "anticommute-residual": round(res.anticommute_residual, 6)}
    rows = [res.commute_residual]
    # measured inversion images (i gamma0 R) lambda^S_h = -+ i lambda^A_h
    p = ctx.momenta(key + "-image", n=1)[0]
    if p.p_abs > 0:
        pr = kin.parity_reflect(p)
        delta = pr.half_angles[2] - math.pi - p.half_angles[2]
        rotation = _Z_HALF_TURNS[int(round(delta / math.pi))]
        for index, coeff in (("up", -1j), ("down", 1j)):
            img = 1j * mat.gamma0 @ (rotation * sp.lambda_spinor(pr, "S", index,
                                                                  "helicity").components)
            tgt = coeff * sp.lambda_spinor(p, "A", index, "helicity").components
            rows.append(np.linalg.norm(img - tgt) / np.linalg.norm(img))
            constants[f"image-coefficient-{index}"] = _c(coeff)
    separated = res.anticommute_residual > TOLERANCES["floor"]
    return rows + [float(not separated), float(res.relation != "commute")], constants


@check("symmetry.composition-associativity", "operator composition is associative and the "
       "antilinear flag xors", "tight")
def _composition_associativity(ctx, key):
    rng = ctx.rng(key + "-picks")
    pool = [ops.charge_conjugation(), ops.parity_operator(), ops.chirality(),
            ops.SymmetryOperator(ops.chiral_gauge_transform(0.7, "lambda")),
            ops.charge_conjugation(sp.PhaseConfig(theta_c=1.1))]
    rows = []
    momenta = ctx.momenta(key, n=min(ctx.samples, 3))
    state = functools.partial(sp.lambda_components, kind="S", index="up")
    for triple in rng.integers(0, len(pool), (12, 3)):
        a, b, c = (pool[k] for k in triple)
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        images = [op.apply_state(state, momenta) for op in (left, right)]
        rows += [np.linalg.norm(left.matrix - right.matrix), abs(left.phase - right.phase),
                 mat.rownorm(images[0] - images[1]),
                 float(left.antilinear != right.antilinear
                       or left.reflects_momentum != right.reflects_momentum)]
    # antilinear composed with antilinear is linear
    return rows + [float(pool[0].compose(pool[4]).antilinear)], {}


@check(_CONVENTION, "exactly one plane-wave frequency assignment solves all four coupled "
       "equations, stable across sample sizes")
def _convention(ctx, key):
    conv = ctx.convention()
    # stability: rediscover on a fresh batch
    other = dyn.discover_convention(ctx.momenta(key + "-probe", n=4))
    stable = ctx.force_convention is not None or other.sign == conv.sign
    return [float(not stable)], {"sign": "+" if conv.sign > 0 else "-"}


@check("dynamics.coupled-system", "all four coupled first-order equations vanish under the "
       "discovered convention at every sampled momentum")
def _coupled(ctx, key):
    conv = ctx.convention()
    return list(dyn.coupled_system_residual(ctx.momenta(key), conv)), {}


@check("dynamics.wrong-convention", "flipping the frequency assignment leaves a residual above "
       "half the mass in at least one coupled equation", "floor_mass", "exceed-floor")
def _wrong_convention(ctx, key):
    wrong = dyn.FrequencyConvention(-ctx.convention().sign)
    momenta = ctx.momenta(key)
    states = dyn.physical_states(momenta)
    scale = momenta.m * dyn.physical_state_scale(states)
    return [dyn.worst_coupled_residual(momenta, wrong, states) / scale], {}


@check("dynamics.clifford-square", "the momentum-space kinetic matrix squares to m^2")
def _clifford_square(ctx, key):
    momenta = ctx.momenta(key)
    gp = dyn.dirac_matrix(momenta)
    m2 = momenta.m ** 2
    return [mat.rownorm(gp @ gp - m2[:, None, None] * np.eye(4), matrix=True) / m2], {}


@check("dynamics.markov", "sum/difference superpositions of opposite-mass-sign solutions "
       "satisfy the cross-coupled pair, lie in the particle/antiparticle span, and the map is "
       "an isometry")
def _markov(ctx, key):
    momenta = ctx.momenta(key, n=min(ctx.samples, 25))
    w = _gaussian(ctx.rng(key + "-weights"), len(momenta), 4).T
    chi, eta = dyn.markov_superposition(momenta, w[:2], w[2:])
    gp, m = dyn.dirac_matrix(momenta), mat.column(momenta.m)
    scale = np.maximum(np.maximum(mat.rownorm(chi), mat.rownorm(eta)), 1e-12)
    # u/v span and isometry
    basis = np.stack([sp.dirac_components(momenta, s, i)
                      for s in ("particle", "antiparticle") for i in sp.INDICES], axis=-1)
    psi1 = mat.matvec(basis[..., :2], w[:2].T)
    psi2 = mat.matvec(basis[..., 2:], w[2:].T)
    before = mat.rownorm(psi1) ** 2 + mat.rownorm(psi2) ** 2
    after = mat.rownorm(chi) ** 2 + mat.rownorm(eta) ** 2
    return [mat.rownorm(mat.matvec(gp, chi) - m * eta) / scale,
            mat.rownorm(mat.matvec(gp, eta) - m * chi) / scale,
            _span_residual(basis, np.stack([chi, eta])),
            np.abs(before - after) / before], {}


@check("dynamics.sen-gupta-dirac-limit", "the two-mass operator reduces to the standard one at "
       "zero pseudoscalar mass")
def _sen_gupta_dirac_limit(ctx, key):
    momenta = ctx.momenta(key, n=min(ctx.samples, 25))
    u = sp.dirac_components(momenta, "particle", "up")
    return [dyn.sen_gupta_residual(momenta, momenta.m, 0.0, u) / mat.rownorm(u)], {}


@check("dynamics.sen-gupta-null-dim", "on the generalised shell p^2 = m1^2 - m2^2 the two-mass "
       "operator has a two-dimensional solution space")
def _sen_gupta_null_dim(ctx, key):
    rng = ctx.rng(key)
    m1 = rng.uniform(0.5, 3.0, 10)
    m2 = rng.uniform(0.0, 0.9, 10) * m1
    vec = rng.normal(size=(10, 3))
    e = np.sqrt(m1 ** 2 - m2 ** 2 + mat.sqnorm(vec))
    nulls = dyn.sen_gupta_null_space(e, *vec.T, m1, m2)
    # the first measured dimension other than 2, else 2
    dim = next((len(null) for null in nulls if len(null) != 2), 2)
    if dim != 2:
        return [1.0], {"null-dimension": dim}
    op = dyn.sen_gupta_operator(e, *vec.T, m1, m2)
    residual = mat.rownorm(mat.matvec(op[:, None], np.array(nulls)), matrix=True)
    return [residual], {"null-dimension": dim}


@check("dynamics.sen-gupta-off-shell", "off the generalised shell the two-mass operator has an "
       "empty null space")
def _sen_gupta_off_shell(ctx, key):
    rng = ctx.rng(key)
    m1, m2 = 2.0, 1.0
    vec = rng.normal(size=(10, 3))
    e = np.sqrt(m1 ** 2 - m2 ** 2 + mat.sqnorm(vec)) * rng.uniform(1.1, 2.0, 10)
    return [len(null) for null in dyn.sen_gupta_null_space(e, *vec.T, m1, m2)], {}


@check("dynamics.sen-gupta-equivalence", "the axial equivalence transform carries two-mass "
       "solutions to standard solutions of mass sqrt(m1^2 - m2^2)")
def _sen_gupta_equivalence(ctx, key):
    rng = ctx.rng(key)
    m1 = rng.uniform(0.5, 3.0, 10)
    m2 = rng.uniform(0.1, 0.9, 10) * m1
    mu = np.sqrt(m1 ** 2 - m2 ** 2)
    vec = rng.normal(size=(10, 3))
    e = np.sqrt(mu ** 2 + mat.sqnorm(vec))
    inverse = np.linalg.inv(dyn.sen_gupta_equivalence(m1, m2))
    dirac = dyn.slash(e, *vec.T) - mu[:, None, None] * np.eye(4)
    mapped = [mat.matvec(inv, np.reshape(null, (-1, 4)))
              for inv, null in zip(inverse, dyn.sen_gupta_null_space(e, *vec.T, m1, m2))]
    return [_rel(mat.matvec(d, x), x) for d, x in zip(dirac, mapped)], {}


@check("dynamics.sen-gupta-massless", "with vanishing scalar mass the null vectors are not "
       "eigenstates of the doubled sigma.n matrix", "floor", "exceed-floor")
def _sen_gupta_massless(ctx, key):
    rng = ctx.rng(key)
    m2 = rng.uniform(0.3, 2.0, 10)
    vec = _unit(rng.normal(size=(10, 3)))
    pabs = m2 * rng.uniform(1.2, 3.0, 10)
    e = np.sqrt(pabs ** 2 - m2 ** 2)
    sn = mat.pauli_dot(*vec.T)
    chiral_h = mat.block_diag2(sn, -sn)
    rows = []
    for null, h in zip(dyn.sen_gupta_null_space(e, *(pabs * vec.T), 0.0, m2), chiral_h):
        if not null:
            return [0.0], {"note": "no null vectors found"}
        v = _unit(np.array(null))
        av = mat.matvec(h, v)
        rows.append(mat.rownorm(av - mat.column(mat.vdot(v, av)) * v))
    return rows, {}


@check("dynamics.eight-component", "the eight-component operator annihilates both stacks, its "
       "axial matrix squares to one and commutes with the kinetic block")
def _eight_component(ctx, key):
    conv = ctx.convention()
    momenta = ctx.momenta(key)
    gp = dyn.dirac_matrix(momenta)
    # with l5 = diag(g5, -g5) and the kinetic block [[0, G], [G, 0]], the
    # commutator is [[0, {g5, G}], [-{g5, G}, 0]] and l5^2 = diag(g5^2, g5^2);
    # their 4x4 blocks keep the batch free of 8x8 arrays
    anti = mat.matmat(mat.gamma5, gp) + mat.matmat(gp, mat.gamma5)
    square = math.sqrt(2.0) * float(np.linalg.norm(mat.gamma5 @ mat.gamma5 - np.eye(4)))
    return [square, dyn.eight_component_residual(momenta, conv),
            math.sqrt(2.0) * mat.rownorm(anti, matrix=True) / np.maximum(1.0, momenta.E)], {}


@check("dynamics.eight-gauge", "axial gauge transforms map eight-component solutions to "
       "solutions")
def _eight_gauge(ctx, key):
    conv = ctx.convention()
    momenta = ctx.momenta(key, n=min(ctx.samples, 10))
    alphas = ctx.rng(key + "-angles").uniform(0, 2 * math.pi, (20, len(momenta)))
    # G_lambda on the lambda block and G_rho on the rho block of each stack
    gauges = np.stack([ops.chiral_gauge_transform(alphas, family)
                       for family in ("lambda", "rho")] * 2, axis=-3)
    # both indices at once: (index, angle, momentum, state, component)
    states = dyn.physical_states(momenta)[:, None]
    eqs = dyn.coupled_equations(momenta, conv, mat.matvec(gauges, states))
    # rows 0-1 and 2-3 of each (4, 4) block are the two stacks' equations
    return [mat.rownorm(eqs.reshape(-1, 8))], {}


@check("dynamics.mass-term-chiral", "the mass pairing is invariant under axial phase "
       "transforms and vanishes on the physical quartet")
def _mass_term_chiral(ctx, key):
    rng = ctx.rng(key + "-fields")
    momenta = ctx.momenta(key, n=min(ctx.samples, 10))
    quartet = np.moveaxis(dyn.physical_states(momenta)[0], -2, 0)   # index up
    base_phys = dyn.lagrangian_mass_term(*quartet, momenta.m)
    # (5, n): five angles and four random fields per momentum
    alphas = rng.uniform(0, 2 * math.pi, (5, len(momenta)))
    fields = _gaussian(rng, 4 * alphas.size, 4).reshape((4,) + alphas.shape + (4,))
    gauges = [ops.chiral_gauge_transform(alphas, f) for f in ("lambda", "rho")] * 2
    before = dyn.lagrangian_mass_term(*fields, momenta.m)
    after = dyn.lagrangian_mass_term(*map(mat.matvec, gauges, fields), momenta.m)
    moved = dyn.lagrangian_mass_term(*map(mat.matvec, gauges, quartet), momenta.m)
    physical = np.abs(base_phys)
    return ([physical, np.abs(before - after) / np.maximum(1.0, np.abs(before)),
             np.abs(moved - base_phys)], {"physical-value": round(float(np.max(physical)), 12)})


@check("dynamics.mass-term-su2", "the doublet mass pairing is invariant under common SU(2) "
       "phase rotations")
def _mass_term_su2(ctx, key):
    rng = ctx.rng(key + "-fields")
    # five rotations and four random fields per momentum
    m = np.repeat(ctx.momenta(key, n=min(ctx.samples, 10)).m, 5)
    u = _su2_elements(rng, len(m))
    d0, d1, r0, r1 = _gaussian(rng, 4 * len(m), 4).reshape(4, len(m), 4)
    before = dyn.doublet_mass_term((d0, d1), (r0, r1), m)
    after = dyn.doublet_mass_term(dyn.rotate_doublet(u, (d0, d1)),
                                  dyn.rotate_doublet(u, (r0, r1)), m)
    return [np.abs(before - after) / np.maximum(1.0, np.abs(before))], {}


@check("dynamics.mass-term-real", "the mass pairing is real for arbitrary field configurations")
def _mass_term_real(ctx, key):
    values = dyn.lagrangian_mass_term(*_gaussian(ctx.rng(key), 4 * 20, 4).reshape(4, 20, 4), 1.7)
    return [np.abs(values.imag) / np.maximum(1.0, np.abs(values))], {}


@check("spin-one.wigner-property", "the 3x3 Wigner matrix is real orthogonal symmetric, squares "
       "to +1 and conjugates every generator to minus its conjugate", "tight")
def _wigner_one(ctx, key):
    th = mat.theta_one
    return [np.linalg.norm(x) for x in (
        th.imag, th - th.T, th @ th.conj().T - np.eye(3), th @ th - np.eye(3),
        *(th @ j @ np.linalg.inv(th) + np.conj(j) for j in mat.SPIN1_J))], {}


def _square_residual(rng, op, sign: float):
    """|op(op(v)) - sign v| / |v| for 8 random six-vectors, (8,)."""
    v = _gaussian(rng, 8, 6)
    return _rel(op.apply(op.apply(v)) - sign * v, v)


@check("spin-one.c-squared-minus-one", "the six-component conjugation squares to -1 for every "
       "phase", "tight")
def _sc_squared(ctx, key):
    rng = ctx.rng(key)
    phases = (0.0, math.pi / 2, float(rng.uniform(0, 2 * math.pi)))
    return [_square_residual(rng, s1.sc_one(phase), -1.0) for phase in phases], {}


@check("spin-one.block-swap-squared", "the linear block swap squares to +1 at zero phase",
       "tight")
def _ss_squared(ctx, key):
    return [_square_residual(ctx.rng(key), s1.ss_one(), 1.0)], {}


@check("spin-one.twist-squared", "the chirality-twisted conjugation squares to +1 and the "
       "chirality matrix anticommutes with the conjugation block", "tight")
def _g5sc_squared(ctx, key):
    rng = ctx.rng(key)
    rows = [_square_residual(rng, s1.gamma5_sc_one(phase), 1.0) for phase in (0.0, 0.9)]
    # Gamma5 anticommutes with the conjugation block
    cm, g5 = s1.sc_one().matrix, s1.gamma5_one()
    return rows + [np.linalg.norm(g5 @ cm + cm @ g5)], {}


_CONSTRUCTIONS = tuple(itertools.product(("lambda", "rho"), (1, 0, -1)))


def _scans(ctx, key, rest_mass, n, op):
    """(zeta, residual), each (2, rows): the self and anti-self minima of
    every (construction, h) pair over a rest momentum and n drawn ones, all
    in one zeta-scan."""
    momenta = kin.as_batch([kin.make_momentum(0, 0, 0, rest_mass),
                            *ctx.momenta(key, n=min(ctx.samples, n))])
    pairs = [s1.spin1_pair(momenta, construction, h) for construction, h in _CONSTRUCTIONS]
    x, y = (np.concatenate(part) for part in zip(*pairs))
    return s1.scan_pairs(x, y, op)


@check("spin-one.twisted-conjugacy-zeta", "the chirality-twisted conjugacy requirement is "
       "satisfied exactly at zeta = +1 (self) and zeta = -1 (anti-self) for all helicities, "
       "both constructions, at rest and boosted", "zeta_minimum")
def _zeta_minima(ctx, key):
    zeta, residual = _scans(ctx, key, 1.3, 8, s1.gamma5_sc_one())
    target = np.array([[1.0], [-1.0]])   # self, anti
    return [residual, np.abs(zeta - target)], {"zeta-self": 1.0, "zeta-anti": -1.0}


@check("spin-one.bare-conjugacy-floor", "no unit-circle zeta makes a six-spinor self or "
       "anti-self conjugate under the bare conjugation", "floor", "exceed-floor")
def _bare_conjugacy_floor(ctx, key):
    return [_scans(ctx, key, 0.9, 20, s1.sc_one())[1]], {}


@check("spin-one.zeta-boost-persistence", "the rest-frame zeta values keep solving the twisted "
       "conjugacy at every boosted momentum")
def _zeta_boost_persistence(ctx, key):
    op = s1.gamma5_sc_one()
    momenta = ctx.momenta(key, n=min(ctx.samples, 20))
    boost = mat.block_diag2(kin.boost_one(momenta, "R"), kin.boost_one(momenta, "L"))
    rows = []
    for h in (1, 0, -1):
        # the rest-frame lambda pair along each momentum's direction, boosted
        pair = s1._blocks(s1.spin1_helicity_triplet_at(momenta, h), "lambda")
        x, y = (mat.matvec(boost, v) for v in pair)
        rows += [_rel(op.apply(v) - zeta * v, v) for zeta, v in ((1.0, x + y), (-1.0, x - y))]
    return rows, {}


@check("spin-one.scan-phase-covariance", "shifting the conjugation phase rotates the optimal "
       "zeta by the same phase", "zeta_minimum")
def _scan_phase_covariance(ctx, key):
    p = kin.make_momentum(0.3, -0.4, 0.5, 1.0)
    scans = [(phase, s1.spin1_conjugacy_scan(p, "g5sc", "lambda", 1, op_phase=phase).self_minimum)
             for phase in (0.7, 2.1)]
    return ([abs(best.zeta - cmath.exp(1j * phase)) for phase, best in scans]
            + [best.residual for _, best in scans], {"optimal-zeta-rotation": "e^(i phase)"})


@check("spin-one.boost-closed-form", "the closed-form spin-1 boost equals its 20-term "
       "exponential series")
def _boost_one_closed_form(ctx, key):
    momenta = _moving(ctx.momenta(key, n=min(ctx.samples, 20)))
    x = np.arccosh(momenta.E / momenta.m)
    # 20-term series oracle with scaling and squaring so the truncation
    # stays far below tolerance up to E/m ~ 10; each row squares its own
    # number of times
    halvings = np.maximum(0, np.ceil(np.log2(np.maximum(x, 1e-12) / 0.5))).astype(int)
    arg = mat.spin1_dot(*momenta.direction().T) * (x / 2.0 ** halvings)[:, None, None]
    series = np.zeros_like(arg)
    term = np.broadcast_to(np.eye(3, dtype=complex), arg.shape)
    for order in range(20):
        series = series + term
        term = term @ arg / (order + 1)
    for k in range(np.max(halvings, initial=0)):
        series = np.where((k < halvings)[:, None, None], series @ series, series)
    return [mat.rownorm(series - kin.boost_one(momenta, "R"), matrix=True)], {}


@check("spin-one.boost-z-eigen", "a z boost with E/m = 2 acts diagonally with factors "
       "2 +- sqrt(3) and 1; the rest boost is the identity")
def _boost_one_z_eigen(ctx, key):
    p = kin.make_momentum(0, 0, math.sqrt(3.0), 1.0)  # E/m = 2
    target = np.diag([2 + math.sqrt(3.0), 1.0, 2 - math.sqrt(3.0)]).astype(complex)
    rest = kin.make_momentum(0, 0, 0, 2.0)
    return [np.linalg.norm(kin.boost_one(p, "R") - target),
            np.linalg.norm(kin.boost_one(rest, "R") - np.eye(3))], {}


# ---------------------------------------------------------------------------
# running and comparing
# ---------------------------------------------------------------------------

def run_suite(name: str, seed: int, samples: int,
              force_convention: str | None = None) -> VerificationReport:
    """Execute every check of the named suite deterministically.  A seed that
    is not an integer >= 0, or a sample count that is not an integer >= 1
    (a bool is neither), raises ``UsageError``."""
    for label, value, least in (("samples", samples, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
            raise UsageError(f"{label} must be an integer >= {least}, got {value!r}")
    checks = suite_checks(name)
    if force_convention not in (None, "+", "-"):
        raise UsageError("force_convention must be '+' or '-'")
    force = None if force_convention is None else dyn.FrequencyConvention(
        1 if force_convention == "+" else -1)
    ctx = RunContext(seed, samples, force)
    outcomes = []
    for spec in sorted(checks, key=lambda c: c.id):
        try:
            rows, constants = spec.run(ctx)
            residual = spec.reduce(rows)
            status = "pass" if spec.passes(residual) else "fail"
        except Exception as exc:  # one broken check must not stop the run
            residual, status = math.nan, "error"
            constants = {"error": f"{type(exc).__name__}: {exc}"}
        outcomes.append(CheckOutcome(spec.id, spec.anchor, status,
                                     float(residual), ctx.samples, constants))
    passed = sum(1 for o in outcomes if o.status == "pass")
    try:
        convention = "+" if ctx.convention().sign > 0 else "-"
    except ElkoError:
        convention = "?"
    summary = {"total": len(outcomes), "passed": passed, "failed": len(outcomes) - passed}
    return VerificationReport(name, ctx.seed, ctx.samples, convention, ctx.resamples,
                              outcomes, summary)


def diff_reports(a: VerificationReport, b: VerificationReport):
    """Ids whose status or measured constants differ beyond tolerance.

    Residual magnitudes are deliberately not compared, so reports from
    different seeds with equal statuses diff as empty.
    """
    if a.suite != b.suite:
        raise UsageError(f"cannot diff reports of suites {a.suite!r} and {b.suite!r}")
    by_id_a, by_id_b = ({c.id: [c.status, c.constants] for c in r.checks} for r in (a, b))
    drifted = {cid for cid in by_id_a.keys() | by_id_b.keys()
               if _differ(by_id_a.get(cid), by_id_b.get(cid))}
    if a.convention != b.convention:
        drifted.add(_CONVENTION)
    return sorted(drifted)


def _differ(a, b) -> bool:
    """Whether two measured values differ: numbers by more than _DRIFT_TOL or
    when one of them alone is NaN, lists entry by entry, dicts key by key,
    anything else (statuses, a check missing from one report) by equality."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return not (abs(a - b) <= _DRIFT_TOL or a == b or (math.isnan(a) and math.isnan(b)))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) != len(b) or any(_differ(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() != b.keys() or any(_differ(a[k], b[k]) for k in a)
    return a != b
