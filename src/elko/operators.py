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

import numpy as np

from .config import TOLERANCES
from .errors import (
    CoordinateSingularityError,
    DimensionError,
    DirectionUndefinedError,
    DomainError,
    check_finite,
    check_label,
)
from .kinematics import _any, _sqrt, _unit, _where, parity_reflect
from .matrices import (CMatrix, block_diag2, gamma0, gamma2, gamma5, matvec, pauli_dot, read_only,
                       rownorm)
from .spinors import BASES, INDICES, PhaseConfig, dirac_components, lambda_components


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

_MINUS_GAMMA2, _U2, _U3 = read_only(-gamma2, np.eye(4, dtype=complex)[[0, 3, 2, 1]],
                                    np.eye(4, dtype=complex)[[0, 2, 1, 3]])


def charge_conjugation(cfg: PhaseConfig = PhaseConfig()) -> SymmetryOperator:
    """Antilinear charge conjugation: -e^{i theta_c} gamma2 K (read-only matrix)."""
    return SymmetryOperator(_MINUS_GAMMA2, antilinear=True, phase=cmath.exp(1j * cfg.theta_c))


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
    """h = (1/2) diag(sigma.n, sigma.n); spectrum {+1/2, +1/2, -1/2, -1/2}."""
    sn = pauli_dot(*_unit(p))
    return SymmetryOperator(0.5 * block_diag2(sn, sn))


def chiral_helicity_operator(p) -> SymmetryOperator:
    """eta = -gamma5 h = -(1/2) diag(sigma.n, -sigma.n), from the same sigma.n."""
    sn = pauli_dot(*_unit(p))
    return SymmetryOperator(-0.5 * block_diag2(sn, -sn))


# ---------------------------------------------------------------------------
# the unitary chain connecting helicity, chirality and chiral helicity
# ---------------------------------------------------------------------------

_TINY = np.finfo(float).tiny


def u1(p) -> CMatrix:
    """Block-doubled rotation diagonalising sigma.n, normalised to det 1;
    (N, 4, 4) on a batch.

    The raw 2x2 block [[1, p_l/(|p|+pz)], [-p_r/(|p|+pz), 1]] is unitary only
    up to sqrt((|p|+pz)/(2|p|)); the factor is included.  For pz < 0,
    |p| + pz is formed as p_perp^2 / (|p| - pz), which does not cancel.
    Momentum on the -z axis hits the coordinate singularity and is rejected;
    so is momentum where p_perp^2, |p|+pz or cos^2(theta/2) is subnormal.
    The guards and the pick of |p| + pz are ``_any`` and ``_where``: Python
    bools and floats for one momentum, numpy's on (N,) arrays.  The matrix
    is one array of its 16 entries, C-contiguous on a batch too.
    """
    pabs, pz = p.p_abs, p.pz
    if _any(pabs == 0.0):
        raise DirectionUndefinedError("u1 needs a momentum direction")
    far, below = pabs + abs(pz), pz < 0
    denom = _where(below, p.p_perp2 / far, far)
    cos2 = denom / (2.0 * pabs)
    if _any(below & ((p.p_perp2 < _TINY) | (denom < _TINY) | (cos2 < _TINY))):
        raise CoordinateSingularityError(
            f"momentum along -z (|p|+pz = {np.min(denom):.3e}); rotate the frame first")
    s = _sqrt(cos2)
    r = s / denom
    # numpy's complex product, which fuses its multiply-add, unlike Python's
    upper, lower = np.multiply((r, -r), (p.p_l, p.p_r))
    z = 0.0 * s
    # listed transposed, as in matrices.matrix2, then copied row-major: on a
    # batch the chain checks' products and determinants of the transposed
    # view cost more than the copy
    return np.array([[s, lower, z, z], [upper, s, z, z], [z, z, s, lower], [z, z, upper, s]],
                    dtype=complex).T.copy()


def u2() -> CMatrix:
    """Permutation exchanging components 1 and 3 (det = -1), read-only."""
    return _U2


def u3() -> CMatrix:
    """Permutation exchanging components 1 and 2 (det = -1), read-only."""
    return _U3


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


def lambda_basis_transforms(p) -> np.ndarray:
    """The four 4x4 block matrices built from Xi that map the self-conjugate
    helicity-family lambdas onto {lambda_A*, -i lambda_S*, i gamma0 lambda_A*,
    gamma0 lambda_S*} without leaving the self/anti-self conjugate spaces:
    one (4, 4, 4) array, (4, N, 4, 4) on a batch, whose zero blocks are left
    as allocated and whose Xi blocks are filled in by slice assignment.

    Xi is rescaled to its unitary representative and phase-pinned so the
    first transform's coefficient is real positive (the block scale drops out
    of the intertwining relation, but the mapped-family identities fix it).
    The momentum's cached Xi is read, not rebuilt.
    """
    # sqrt(2) e^{i phi} Xi = diag(e^{i phi}, e^{-i phi}) = U* U^dagger: coefficient 1;
    # px + 0.0 turns -0.0 into +0.0, as the helicity frame does, so that phi
    # is 0, not +-pi, on the z axis
    phase = np.asarray(np.exp(1j * np.arctan2(p.py, p.px + 0.0)))[..., None, None]
    xu = math.sqrt(2.0) * phase * xi_matrix(p)
    ixu = 1j * xu
    t = np.zeros((4, *xu.shape[:-2], 4, 4), dtype=complex)
    t[0, ..., :2, :2] = t[0, ..., 2:, 2:] = xu
    t[1, ..., :2, :2], t[1, ..., 2:, 2:] = ixu, -1j * xu
    t[2, ..., :2, 2:] = t[2, ..., 2:, :2] = ixu
    t[3, ..., :2, 2:], t[3, ..., 2:, :2] = xu, -xu
    return t


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
    group.  A ``c`` whose last axis is not of length 3 raises
    ``DimensionError``.
    """
    c0, c = np.asarray(c0, dtype=float), np.asarray(c, dtype=float)
    if c.shape[-1:] != (3,):
        raise DimensionError(f"c needs a last axis of length 3, got shape {c.shape}")
    norm = c0 * c0 + np.sum(c * c, axis=-1)
    off = ~(np.abs(norm - 1.0) <= 1e-12)  # NaN is off the sphere too
    if np.any(off):
        raise DomainError(f"(c0, c) must satisfy c0^2 + |c|^2 = 1, got {np.extract(off, norm)[0]}")
    return c0[..., None, None] * np.eye(2, dtype=complex) + 1j * pauli_dot(*c.T)


# ---------------------------------------------------------------------------
# commutation classification of C and P on state families
# ---------------------------------------------------------------------------

# Intrinsic space-inversion phase per family: real for Dirac states,
# imaginary for the truly neutral self/anti-self conjugate ones (without the
# i, inversion anticommutes with the antilinear conjugation identically).
_INTRINSIC_PARITY = {"dirac": 1.0 + 0.0j, "elko": 1.0j}


def _family_stack(q, basis: str, family: str, cfg: PhaseConfig) -> np.ndarray:
    """The family's four states at the momenta q as one (4, N, 4) stack:
    particle, antiparticle (Dirac) or S, A (elko), each up then down."""
    components, kinds = ((dirac_components, ("particle", "antiparticle")) if family == "dirac"
                         else (lambda_components, ("S", "A")))
    return np.array([components(q, k, i, basis, cfg) for k in kinds for i in INDICES])


def classify_cp_action(q, basis: str, family: str,
                       cfg: PhaseConfig = PhaseConfig()) -> ActionClassification:
    """Probe C P +- P C on every member of the family at the momenta q (a
    FourMomentum or a MomentumBatch), as one stack of its states, with the
    family's intrinsic inversion phase; the classification is independent
    of the conjugation phase theta_c.  An unknown basis or family, or a
    batch with no rows, raises ``DomainError``."""
    check_label("basis", basis, BASES)
    check_label("family", family, _INTRINSIC_PARITY)
    if np.size(q.m) == 0:
        raise DomainError("classify_cp_action needs at least one momentum")
    c_op = charge_conjugation(cfg)
    p_op = parity_operator(_INTRINSIC_PARITY[family])
    cp = c_op.compose(p_op)
    pc = p_op.compose(c_op)

    # C P and P C both reflect the momentum once
    x = _family_stack(parity_reflect(q), basis, family, cfg)
    a, b = cp.apply(x), pc.apply(x)
    scale = np.maximum(rownorm(_family_stack(q, basis, family, cfg)), 1e-300)
    # |CP x -+ PC x| / |x|, one reduction over every row: a NaN row reads neither
    commute, anticommute = (float(np.max(rownorm(d) / scale)) for d in (a - b, a + b))

    tol = TOLERANCES["identity"]
    if commute <= tol:
        relation = "commute"
    elif anticommute <= tol:
        relation = "anticommute"
    else:
        relation = "neither"
    return ActionClassification(relation, commute, anticommute)
