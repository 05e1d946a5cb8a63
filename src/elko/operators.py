"""Discrete-symmetry and basis-rotation operators, and their composition
calculus with antilinearity and momentum-reflection bookkeeping.

A ``SymmetryOperator`` acts on a momentum-space state function psi as

    (O psi)(p) = phase * M * K^a [ psi(p') ]

where p' = parity_reflect(p) when the operator reflects momentum (else p),
K is complex conjugation applied a = 0/1 times, and M is a fixed n x n
matrix: n = 4 for the spin-1/2 operators here, n = 6 for the spin-1 ones in
``spin_one``.
Composition therefore multiplies matrices (conjugating the inner one under
an antilinear outer factor), xors the two flags and multiplies phases
(conjugating the inner phase under an antilinear outer factor).  The generic
composition assumes momentum-independent matrices; momentum-dependent ones
(helicity) are composed explicitly where needed.

The momentum-dependent operators take a FourMomentum or a MomentumBatch;
on a batch their matrices carry a leading (N,) axis, and ``apply`` acts on
(N, 4) component rows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .config import TOLERANCES
from .errors import (
    CoordinateSingularityError,
    DirectionUndefinedError,
    DomainError,
    check_finite,
    check_label,
)
from .kinematics import _sqrt, _unit, parity_reflect, sample_momenta
from .matrices import (CMatrix, block_diag2, blocks, gamma0, gamma2, gamma5, matvec, pauli_dot,
                       rownorm)
from .spinors import BASES, PhaseConfig, dirac_components, lambda_components


@dataclass(frozen=True)
class SymmetryOperator:
    """Matrix part + antilinearity flag + momentum-reflection flag + phase."""

    matrix: CMatrix
    antilinear: bool = False
    reflects_momentum: bool = False
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        # written so that a NaN phase fails the comparison
        if not abs(abs(self.phase) - 1.0) <= TOLERANCES["on_shell"]:
            raise DomainError(f"operator phase must be unimodular, got {self.phase}")
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))

    def apply(self, components) -> np.ndarray:
        """Act on explicit components (one vector or (N, n) rows); a
        reflecting operator requires the caller to have evaluated them at
        the reflected momentum already."""
        x = np.conj(components) if self.antilinear else components
        return self.phase * matvec(self.matrix, x)

    def apply_state(self, state, p) -> np.ndarray:
        """Act on a state function p -> components (p may be a batch)."""
        q = parity_reflect(p) if self.reflects_momentum else p
        return self.apply(state(q))

    def compose(self, other: "SymmetryOperator") -> "SymmetryOperator":
        """self after other (operator product self . other)."""
        inner_matrix = np.conj(other.matrix) if self.antilinear else other.matrix
        inner_phase = np.conj(other.phase) if self.antilinear else other.phase
        return SymmetryOperator(
            self.matrix @ inner_matrix,
            antilinear=self.antilinear != other.antilinear,
            reflects_momentum=self.reflects_momentum != other.reflects_momentum,
            phase=self.phase * inner_phase,
        )


@dataclass(frozen=True)
class ActionClassification:
    """Outcome of probing whether two operators (anti)commute on a family."""

    relation: str             # commute | anticommute | neither
    commute_residual: float
    anticommute_residual: float


# ---------------------------------------------------------------------------
# the basic operators
# ---------------------------------------------------------------------------

def charge_conjugation(cfg: PhaseConfig = PhaseConfig()) -> SymmetryOperator:
    """Antilinear charge conjugation: -e^{i theta_c} gamma2 K."""
    return SymmetryOperator(-gamma2, antilinear=True, phase=cmath.exp(1j * cfg.theta_c))


def parity_operator(intrinsic_phase: complex = 1.0) -> SymmetryOperator:
    """Space inversion gamma0 R with an optional intrinsic phase.

    Truly neutral (self/anti-self conjugate) states require an imaginary
    intrinsic phase for space inversion to commute with charge conjugation;
    Dirac states use the real default.
    """
    return SymmetryOperator(gamma0, reflects_momentum=True, phase=intrinsic_phase)


def chirality() -> SymmetryOperator:
    return SymmetryOperator(gamma5)


def helicity_operator(p) -> SymmetryOperator:
    """h = (1/2) diag(sigma.n, sigma.n); spectrum {+1/2, +1/2, -1/2, -1/2}.
    One gather from the entries of sigma.n, then one product with 1/2."""
    return SymmetryOperator(0.5 * _sigma_n_entries(p).take(_DOUBLED_INDEX, axis=-1))


def chiral_helicity_operator(p) -> SymmetryOperator:
    """eta = -gamma5 h = -(1/2) diag(sigma.n, -sigma.n)."""
    sn = pauli_dot(p.direction())
    return SymmetryOperator(-0.5 * block_diag2(sn, -sn))


# Slots 0-3 hold the entries of sigma.n (row-major), slot 4 a zero.  The
# gathered matrix is scaled by one numpy product, whose fused multiply-add
# keeps the bits of 0.5 * block_diag2(sigma.n, sigma.n), zero signs included;
# Python's complex product, entry by entry, would not.
_DOUBLED_INDEX = np.array([[0, 1, 4, 4], [2, 3, 4, 4], [4, 4, 0, 1], [4, 4, 2, 3]])


def _sigma_n_entries(p):
    """(n_z, n_x - i n_y, n_x + i n_y, -n_z, 0): (5,), or (N, 5) on a batch."""
    x, y, z = _unit(p)
    return np.array([z, x - 1j * y, x + 1j * y, -z, 0.0 * abs(z)], dtype=complex).T


# ---------------------------------------------------------------------------
# the unitary chain connecting helicity, chirality and chiral helicity
# ---------------------------------------------------------------------------

_TINY = np.finfo(float).tiny
# slots 0-2 hold the block's entries s, r p_l and -r p_r, slot 3 a zero
_U1_INDEX = np.array([[0, 1, 3, 3], [2, 0, 3, 3], [3, 3, 0, 1], [3, 3, 2, 0]])


def u1(p) -> CMatrix:
    """Block-doubled rotation diagonalising sigma.n, normalised to det 1;
    (N, 4, 4) on a batch.

    The raw 2x2 block [[1, p_l/(|p|+pz)], [-p_r/(|p|+pz), 1]] is unitary only
    up to sqrt((|p|+pz)/(2|p|)); the factor is included.  For pz < 0,
    |p| + pz is formed as p_perp^2 / (|p| - pz), which does not cancel.
    Momentum on the -z axis hits the coordinate singularity and is rejected;
    so is momentum where p_perp^2, |p|+pz or cos^2(theta/2) is subnormal.
    Both guards count elementwise comparisons and the matrix is one gather
    from (s, r p_l, -r p_r, 0): one body for floats and (N,) arrays.
    """
    pabs, pz = p.p_abs, p.pz
    if np.count_nonzero(pabs == 0.0):
        raise DirectionUndefinedError("u1 needs a momentum direction")
    far, below = pabs + abs(pz), pz < 0
    denom = np.where(below, p.p_perp2 / far, far)
    cos2 = denom / (2.0 * pabs)
    if np.count_nonzero(below & ((p.p_perp2 < _TINY) | (denom < _TINY) | (cos2 < _TINY))):
        raise CoordinateSingularityError(
            f"momentum along -z (|p|+pz = {np.min(denom):.3e}); rotate the frame first")
    s = _sqrt(cos2)
    r = s / denom
    # numpy's complex product, which fuses its multiply-add, unlike Python's
    upper, lower = np.multiply((r, -r), (p.p_l, p.p_r))
    table = np.array([s, upper, lower, 0.0 * s], dtype=complex)   # s >= 0: 0 s = +0
    return table.T.take(_U1_INDEX, axis=-1)


def u2() -> CMatrix:
    """Permutation exchanging components 1 and 3 (det = -1)."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )


def u3() -> CMatrix:
    """Permutation exchanging components 1 and 2 (det = -1)."""
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


# ---------------------------------------------------------------------------
# the 2x2 conjugation intertwiner and the bispinor transforms built from it
# ---------------------------------------------------------------------------

def xi_matrix(p) -> CMatrix:
    """The 2x2 matrix intertwining both boosts with their conjugates:
    Xi Lambda_{R,L} Xi^-1 = Lambda_{R,L}^*; read-only, (N, 2, 2) on a batch.

    The intertwiner equation alone leaves a two-parameter family (any
    solution times the commutant of sigma.n), so the solution is pinned to
    the one representing complex conjugation in the helicity frame,
    Xi0 = U* U^dagger with the helicity 2-spinors as the columns of U.  For
    every polar angle that product is diag(e^{i phi}, e^{-i phi}); the
    deterministic normalisation (unit Frobenius norm, first nonzero entry
    real positive) makes it diag(1, e^{-2 i phi}) / sqrt(2).

    Xi is built and asserted once per momentum object and kept with it, like
    its half-angle frame: the residual for both boost pairs is checked on
    every row by ``kinematics._intertwiner_residual``, the one form of that
    residual, from the boosts' column entries, and a failing side raises
    ``AmbiguousIntertwinerError`` naming it.  A slice, a mask or a
    reflection of a batch is a new object and asserts its own Xi.
    """
    return p.xi


def lambda_basis_transforms(p) -> list[CMatrix]:
    """The four 4x4 block matrices built from Xi that map the self-conjugate
    helicity-family lambdas onto {lambda_A*, -i lambda_S*, i gamma0 lambda_A*,
    gamma0 lambda_S*} without leaving the self/anti-self conjugate spaces;
    each (N, 4, 4) on a batch.

    Xi is rescaled to its unitary representative and phase-pinned so the
    first transform's coefficient is real positive (the block scale drops out
    of the intertwining relation, but the mapped-family identities fix it).
    The momentum's cached Xi is read, not rebuilt.
    """
    # sqrt(2) e^{i phi} Xi = diag(e^{i phi}, e^{-i phi}) = U* U^dagger: coefficient 1
    phase = np.asarray(np.exp(1j * np.arctan2(p.py, p.px)))[..., None, None]
    xu = math.sqrt(2.0) * phase * xi_matrix(p)
    z = np.zeros_like(xu)
    return [blocks(xu, z, z, xu), blocks(1j * xu, z, z, -1j * xu),
            blocks(z, 1j * xu, 1j * xu, z), blocks(z, xu, -xu, z)]


# ---------------------------------------------------------------------------
# continuous phase transforms
# ---------------------------------------------------------------------------

def chiral_gauge_transform(alpha, family: str) -> CMatrix:
    """cos(alpha) - i gamma5 sin(alpha) on the lambda family, conjugate sign
    on the rho family; unitary, preserves conjugacy and the mass pairing.
    (4, 4) for a float angle, (..., 4, 4) for an array of angles; every
    angle must be finite."""
    check_label("family", family, ("lambda", "rho"))
    check_finite(alpha=alpha)
    sign = -1.0 if family == "lambda" else 1.0
    cos, sin = (np.asarray(f(alpha))[..., None, None] for f in (np.cos, np.sin))
    return cos * np.eye(4, dtype=complex) + sign * 1j * sin * gamma5


def su2_phase_transform(c0, c) -> CMatrix:
    """c0 + i tau.c acting on a doublet of neutral field components; (2, 2)
    for a float c0 and a 3-vector c, (N, 2, 2) for (N,) and (N, 3) rows.

    Requires c0^2 + |c|^2 = 1 (parametrise c0 = cos(phi), c = n sin(phi))
    on every row; the resulting matrices form the SU(2) phase-transformation
    group.
    """
    c0, c = np.asarray(c0, dtype=float), np.asarray(c, dtype=float)
    norm = c0 * c0 + np.sum(c * c, axis=-1)
    off = ~(np.abs(norm - 1.0) <= 1e-12)  # NaN is off the sphere too
    if np.any(off):
        raise DomainError(f"(c0, c) must satisfy c0^2 + |c|^2 = 1, got {np.extract(off, norm)[0]}")
    return c0[..., None, None] * np.eye(2, dtype=complex) + 1j * pauli_dot(c)


# ---------------------------------------------------------------------------
# commutation classification of C and P on state families
# ---------------------------------------------------------------------------

# Intrinsic space-inversion phase per family: real for Dirac states,
# imaginary for the truly neutral self/anti-self conjugate ones (without the
# i, inversion anticommutes with the antilinear conjugation identically).
_INTRINSIC_PARITY = {"dirac": 1.0 + 0.0j, "elko": 1.0j}


def _family_states(basis: str, family: str, cfg: PhaseConfig):
    if family == "dirac":
        return [
            (lambda q, s=s, i=i: dirac_components(q, s, i, basis, cfg))
            for s in ("particle", "antiparticle")
            for i in ("up", "down")
        ]
    return [
        (lambda q, k=k, i=i: lambda_components(q, k, i, basis, cfg))
        for k in ("S", "A")
        for i in ("up", "down")
    ]


def classify_cp_action(basis: str, family: str, seed: int = 1, n_momenta: int = 100,
                       cfg: PhaseConfig = PhaseConfig()) -> ActionClassification:
    """Probe C P +- P C on every member of the family over random momenta.

    Uses the family's intrinsic inversion phase; the classification is
    independent of the conjugation phase theta_c.  The momenta come from
    the suite's sampler and are probed as one batch.  An unknown basis or
    family, a seed that is not an integer of at least 0, or a momentum
    count that is not an integer of at least 1, raises ``DomainError``.
    """
    check_label("basis", basis, BASES)
    check_label("family", family, _INTRINSIC_PARITY)
    for name, value, least in (("seed", seed, 0), ("n_momenta", n_momenta, 1)):
        if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
            raise DomainError(f"{name} must be an integer of at least {least}, got {value!r}")
    c_op = charge_conjugation(cfg)
    p_op = parity_operator(_INTRINSIC_PARITY[family])
    cp = c_op.compose(p_op)
    pc = p_op.compose(c_op)

    q = sample_momenta(np.random.default_rng(seed), n_momenta)
    reflected = parity_reflect(q)   # C P and P C both reflect the momentum once
    rows = []   # per state: |CP x - PC x| and |CP x + PC x| relative to |x|
    for state in _family_states(basis, family, cfg):
        x = state(reflected)
        a, b = cp.apply(x), pc.apply(x)
        scale = np.maximum(rownorm(state(q)), 1e-300)
        rows.append([rownorm(a - b) / scale, rownorm(a + b) / scale])
    # one reduction over every row: a NaN row gives NaN, which classifies as neither
    commute, anticommute = np.max(rows, axis=(0, 2)).tolist()

    tol = TOLERANCES["identity"]
    if commute <= tol:
        relation = "commute"
    elif anticommute <= tol:
        relation = "anticommute"
    else:
        relation = "neither"
    return ActionClassification(relation, commute, anticommute)
