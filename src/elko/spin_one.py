"""The six-component (spin-1) sector: conjugation operators built on the
Wigner matrix ``matrices.theta_one``, chirality, helicity triplets, the
lambda/rho six-spinor pairs and the zeta-scan that quantifies which
conjugation requirement can be satisfied.

Key algebra: with Theta the antidiagonal (1, -1, 1) flip one has
Theta^2 = +1, so the antilinear block operator Sc = [[0, Theta],
[-Theta, 0]] K squares to -1 and no phase zeta makes a six-spinor
self/anti-self conjugate under it.  Twisting by the chirality matrix gives
(Gamma5 Sc)^2 = +1 and the requirement is satisfied exactly at zeta = +1
(self) and zeta = -1 (anti-self), for any helicity and any boost.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import TOLERANCES
from .errors import check_label
from .kinematics import FourMomentum
from .matrices import CMatrix, read_only, sqnorm, theta_one, vdot
from .operators import SymmetryOperator

_I3, _Z3 = np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex)
_SC_BLOCK = np.block([[_Z3, theta_one], [-theta_one, _Z3]])
_SWAP_BLOCK = np.block([[_Z3, _I3], [_I3, _Z3]])
_G5_ONE = np.block([[_I3, _Z3], [_Z3, -_I3]])
_G5_SC_BLOCK = _G5_ONE @ _SC_BLOCK
read_only(_I3, _Z3, _SC_BLOCK, _SWAP_BLOCK, _G5_ONE, _G5_SC_BLOCK)


def sc_one(phase: float = 0.0) -> SymmetryOperator:
    """Antilinear spin-1 charge conjugation; squares to -1 for every phase."""
    return SymmetryOperator(_SC_BLOCK, antilinear=True, phase=cmath.exp(1j * phase))


def ss_one() -> SymmetryOperator:
    """Linear block-swap [[0, 1], [1, 0]]; squares to +1."""
    return SymmetryOperator(_SWAP_BLOCK)


def gamma5_one() -> CMatrix:
    """Chirality of the six-component sector: diag(I3, -I3), read-only."""
    return _G5_ONE


def gamma5_sc_one(phase: float = 0.0) -> SymmetryOperator:
    """The chirality-twisted conjugation Gamma5 Sc; squares to +1."""
    return SymmetryOperator(_G5_SC_BLOCK, antilinear=True, phase=cmath.exp(1j * phase))


# ---------------------------------------------------------------------------
# helicity triplet and six-spinor constructions
# ---------------------------------------------------------------------------

def spin1_helicity_triplet_at(p, h: int) -> np.ndarray:
    """The J.p-hat eigen-3-spinor of eigenvalue h in {+1, 0, -1} along p's
    direction; (3,) at one momentum, (N, 3) on a batch.  The symmetric
    products of the spin-1/2 helicity 2-spinors in c = cos(theta/2) and
    s = sin(theta/2), read off the momentum's half-angle frame
    ``half_angles``: the columns of exp(-i phi Jz) exp(-i theta Jy).
    """
    check_label("h", h, (1, 0, -1))
    c, s, phi = p.half_angles
    e = np.exp(1j * np.asarray(phi))
    cs = math.sqrt(2.0) * c * s
    components = {1: (np.conj(e) * (c * c), cs, e * (s * s)),
                  0: (-np.conj(e) * cs, c * c - s * s, e * cs),
                  -1: (np.conj(e) * (s * s), -cs, e * (c * c))}[h]
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def spin1_pair(p, construction: str, h: int):
    """(x, y) with psi(zeta) = x + zeta y the six-spinor of the construction
    at helicity h along p's direction: (6,) each at one momentum, (N, 6)
    rows on a batch; the upper three components are right-handed, the lower
    three left-handed.

    lambda is boost((zeta Theta phi*, phi)) built from a left-handed triplet
    phi, rho is boost((phi, zeta Theta phi*)) built from a right-handed one.
    phi and Theta phi* have J.p-hat eigenvalues h and -h, so both boosts act
    on them as the scalar ((E + |p|)/m)^(-+h): - for lambda, + for rho.  It
    is formed as the ratio, 1 or 1 / ratio, the bits numpy's power gives a
    batch (C's pow at one momentum can differ in the last bit).
    """
    check_label("construction", construction, ("lambda", "rho"))
    f = spin1_helicity_triplet_at(p, h)
    flipped = np.conj(f) @ theta_one.T
    ratio = (p.E + p.p_abs) / p.m
    power = -h if construction == "lambda" else h
    k = np.asarray(ratio if power == 1 else 1.0 / ratio if power == -1 else 1.0)[..., None]
    zero = np.zeros_like(f)
    if construction == "lambda":
        return (np.concatenate([zero, k * f], axis=-1),
                np.concatenate([k * flipped, zero], axis=-1))
    return (np.concatenate([k * f, zero], axis=-1),
            np.concatenate([zero, k * flipped], axis=-1))


# ---------------------------------------------------------------------------
# zeta scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaMinimum:
    """Best zeta and its residual: scalars for one momentum, (N,) arrays
    for a batch."""

    zeta: complex
    residual: float


@dataclass(frozen=True)
class ConjugacyScan:
    """Minimal self- and anti-self-conjugacy residuals over |zeta| = 1;
    ``floor_exceeded`` is a bool, or an (N,) bool array for a batch."""

    operator: str                  # "sc" | "g5sc"
    construction: str              # "lambda" | "rho"
    self_minimum: ZetaMinimum
    anti_minimum: ZetaMinimum
    floor_exceeded: bool           # True when neither sign admits a solution


_GRID_POINTS = 720   # the unit circle in steps of 0.5 degree
_REFINE_POINTS = 17   # points per refinement step; the bracket shrinks 8x
_REFINE_STEPS = 15    # from +-1 grid step (8.7e-3 rad) down to +-2.5e-16 rad
_OFFSETS = np.linspace(-1.0, 1.0, _REFINE_POINTS)
# step k's bracket half-width h_k, and its weights [1, conj(u), u] at each
# offset o, u = e^{i h_k o}: (steps,) and (steps, points, 3)
_HALVES = (2.0 * math.pi / _GRID_POINTS) * (2.0 / (_REFINE_POINTS - 1)) ** np.arange(_REFINE_STEPS)
_WEIGHTS = np.exp(1j * _HALVES[:, None, None] * _OFFSETS[:, None] * np.array([0.0, -1.0, 1.0]))
# the grid angles t and their basis (1, cos t, sin t, cos 2t, sin 2t),
# (720,) and (5, 720), and the signs of the self and anti-self rows, (2, 1, 1)
_GRID = (2.0 * math.pi / _GRID_POINTS) * np.arange(_GRID_POINTS)
_GRID_BASIS = np.stack([np.ones(_GRID_POINTS), np.cos(_GRID), np.sin(_GRID),
                        np.cos(2.0 * _GRID), np.sin(2.0 * _GRID)])
_SIGNS = np.array([1.0, -1.0])[:, None, None]
read_only(_OFFSETS, _HALVES, _WEIGHTS, _GRID, _GRID_BASIS, _SIGNS)


def spin1_conjugacy_scan(p, operator: str, construction: str = "lambda",
                         h: int = 1, op_phase: float = 0.0) -> ConjugacyScan:
    """Sample zeta on the unit circle (then refine around the best sample)
    and report the minimal residuals of Op psi(zeta) = +- psi(zeta).

    For the chirality-twisted operator the minima sit at zeta = +-1 and
    vanish to machine precision; for the bare conjugation both minima stay
    above the nonexistence floor for every zeta.

    ``p`` is a FourMomentum or a MomentumBatch; a batch is one call over all
    rows and gives the fields of the scan as (N,) arrays (0-length on an
    empty batch), one momentum gives Python scalars.  The pair comes from
    ``spin1_pair``, at one momentum on its own floats, and the scan itself
    is ``scan_pairs``, to which one momentum's pair is one row.
    """
    check_label("operator", operator, ("sc", "g5sc"))
    # looked up per call: perfbench's tracer rebinds sc_one and gamma5_sc_one
    op = sc_one(op_phase) if operator == "sc" else gamma5_sc_one(op_phase)
    single = isinstance(p, FourMomentum)
    x, y = spin1_pair(p, construction, h)
    zeta, residual = scan_pairs(x[None], y[None], op) if single else scan_pairs(x, y, op)

    floor = TOLERANCES["floor"]
    exceeded = (residual[0] > floor) & (residual[1] > floor)
    if single:
        minima = [ZetaMinimum(complex(zeta[k, 0]), float(residual[k, 0])) for k in (0, 1)]
        exceeded = bool(exceeded[0])
    else:
        minima = [ZetaMinimum(zeta[k], residual[k]) for k in (0, 1)]
    return ConjugacyScan(
        operator=operator,
        construction=construction,
        self_minimum=minima[0],
        anti_minimum=minima[1],
        floor_exceeded=exceeded,
    )


def scan_pairs(x, y, op: SymmetryOperator):
    """The zeta-scan of s(zeta) = x + zeta y under ``op`` for (N, 6) rows x
    and y, each row on its own: (zeta, residual), each (2, N), row 0 the
    self and row 1 the anti-self minimum, the residual relative to
    sqrt(|x|^2 + |y|^2).  Rows from any mix of momenta, constructions and
    helicities scan together in one call.

    With zeta = e^{i t} the difference d(t) = Op s - sign s is
    c0 + e^{-i t} c1 + e^{i t} c2 and |d(t)|^2 is a degree-2 trigonometric
    polynomial: the grid evaluates that on all rows and both signs at once.
    The grid only picks the best sample; the refinement narrows a bracket
    around it by taking the best of evenly spaced points each step, on
    |d(t)|^2 summed from the components of d: the expanded polynomial would
    cancel there, to ~1e-8 in |d(t)| / |s| at the exact zeros.  Step k's
    bracket half-width h_k is the same on every row, so at t = c + h_k o
    the factor e^{i h_k o} = u is shared: d = c0 + conj(u) (e^{-ic} c1) +
    u (e^{ic} c2), and a step is one exponential per row and one product
    of the step's weights [1, conj(u), u], built at import, with the three
    terms of all rows.
    """
    a = op.phase * (np.conj(x) @ op.matrix.T)
    b = op.phase * (np.conj(y) @ op.matrix.T)
    norm = np.sqrt(sqnorm(x) + sqnorm(y))

    # grid: |c0 + e^{-it} c1 + e^{it} c2|^2 on (2, N) rows, c1 = b, c2 = -sign y
    c0 = a - _SIGNS * x
    c2 = -_SIGNS * y
    cross1 = vdot(c0, b)                                   # <c0, c1>
    cross2 = vdot(c0, c2)                                  # <c0, c2>
    cross12 = vdot(c2, b)                                  # <c2, c1>
    coeffs = np.stack([
        sqnorm(c0) + sqnorm(b) + sqnorm(c2),
        2.0 * (cross1.real + cross2.real), 2.0 * (cross1.imag - cross2.imag),
        2.0 * cross12.real, 2.0 * cross12.imag], axis=-1)  # (2, N, 5)
    best = (coeffs @ _GRID_BASIS).argmin(axis=-1)          # ties resolve to the smaller angle

    # refinement on the direct |d|^2; each step keeps the best point and
    # its two neighbours as the next bracket; terms holds c0, e^{-ic} b and
    # e^{ic} c2 for the shared weights
    terms = np.empty((3,) + c0.shape, dtype=complex)       # (3, 2, N, 6)
    terms[0] = c0
    centre = _GRID[best]
    for half, weights in zip(_HALVES, _WEIGHTS):
        e = np.exp(1j * centre)[..., None]
        np.multiply(np.conj(e), b, out=terms[1])
        np.multiply(e, c2, out=terms[2])
        d = (weights @ terms.reshape(3, -1)).view(float).reshape(
            _REFINE_POINTS, *c0.shape[:-1], 2 * c0.shape[-1])  # (R, 2, N, 12), re/im interleaved
        d2 = np.einsum("...i,...i->...", d, d)
        centre = centre + half * _OFFSETS[d2.argmin(axis=0)]
    return np.exp(1j * centre), np.sqrt(d2.min(axis=0)) / norm
