"""Momentum-space residual checks for the wave equations: the coupled
lambda/rho first-order system, the doubled Dirac system and its chi/eta
superpositions, the two-mass equation, and the mass terms of the Lagrangian.

The eight-component equation is the coupled system written as the stacks
(lambda^S, rho^A) and (lambda^A, rho^S): ``coupled_equations`` gives the
four equation rows for any four states, and both residuals reduce them over
the physical states.  ``dirac_matrix``, ``coupled_equations`` and both
residuals take a FourMomentum or a MomentumBatch; on a batch they return
one matrix or one residual per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import TOLERANCES
from .errors import DomainError, check_finite, check_label
from .kinematics import as_batch
from .matrices import blocks, column, gamma5, matrix2, matvec, read_only, rownorm
from .spinors import _PRODUCTS, INDICES, Bispinor, bar_product, boosted_patterns, dirac_components


@dataclass(frozen=True)
class FrequencyConvention:
    """Which plane-wave sign each sector carries.

    sign = +1: the (lambda^S, rho^A) pair evolves as e^{-i p.x} and the
    (lambda^A, rho^S) pair as e^{+i p.x}; sign = -1 swaps the roles.  Exactly
    one choice makes all four coupled equations vanish.
    """

    sign: int = 1

    def __post_init__(self):
        check_label("sign", self.sign, (1, -1))


class MarkovPair(NamedTuple):
    chi: np.ndarray
    eta: np.ndarray


def slash(e, px, py, pz) -> np.ndarray:
    """gamma0 e - gamma1 px - gamma2 py - gamma3 pz for any four-vector, or
    (N, 4, 4) for (N,) components (all four of one shape).  In the chiral
    basis that is the block matrix [[0, e + sigma.p], [e - sigma.p, 0]],
    built from its blocks; its entries equal those of the four-gamma sum."""
    pl, pr, ep, em = px - 1j * py, px + 1j * py, e + pz, e - pz
    # sigma.p = [[pz, pl], [pr, -pz]]
    plus, minus = matrix2(ep, pl, pr, em), matrix2(em, -pl, -pr, ep)
    zero = np.zeros_like(plus)
    return blocks(zero, plus, minus, zero)


def dirac_matrix(p) -> np.ndarray:
    """gamma.p for an on-shell momentum; squares to m^2."""
    return slash(p.E, p.px, p.py, p.pz)


# The eight physical states as one (index, state, component) block: for
# each index, the quartet (lambda^S, rho^A, lambda^A, rho^S), their
# spinorial products joined in that order.
_QUARTET = (("lambda", "S"), ("rho", "A"), ("lambda", "A"), ("rho", "S"))
_BLOCK = sum((_PRODUCTS[family, kind, index] for index in INDICES for family, kind in _QUARTET),
             ())


def physical_states(p):
    """The eight physical states as one (index, state, component) block:
    index up then down, the quartet (lambda^S, rho^A, lambda^A, rho^S), the
    four components; (2, 4, 4) at one momentum and (2, N, 4, 4) on a batch,
    the states stacked as ``coupled_equations`` takes them.  One
    ``boosted_patterns`` call on the products that the spinorial
    ``lambda_components`` and ``rho_components`` read one state at a time,
    copied row-major (the coupled rows read it faster on a batch)."""
    rows = boosted_patterns(p, _BLOCK)   # (32,) or (N, 32)
    return np.ascontiguousarray(rows.reshape(rows.shape[:-1] + (2, 4, 4)).swapaxes(0, -3))


def physical_state_scale(states):
    """max |psi| per row over the eight ``physical_states``; E or m times it
    is the scale of a coupled-equation residual."""
    return np.max(rownorm(states), axis=(0, -1))


# The sign columns of the four coupled equations (sectors S, S, A, A): the
# mass signs, and the kinetic signs under either convention.
_MASS_SIGNS = read_only(np.array([[1.0], [1.0], [-1.0], [-1.0]]))
_KINETIC_SIGNS = {sign: read_only(sign * _MASS_SIGNS) for sign in (1, -1)}
# each row's partner among (lambda^S, rho^A, lambda^A, rho^S)
_PARTNERS = read_only(np.array([1, 0, 3, 2]))


def coupled_equations(p, conv: FrequencyConvention, psi) -> np.ndarray:
    """The four coupled equations evaluated on four states, one row each:
    (lambda^S -> rho^A, rho^A -> lambda^S, lambda^A -> rho^S,
    rho^S -> lambda^A).

    Row k is kinetic_k gamma.p state_k - mass_k m partner_k: the
    coordinate-space equations carry opposite mass signs in the two
    sectors, and the plane-wave substitution contributes the convention's
    frequency sign to the kinetic part.  psi holds the states (lambda^S,
    rho^A, lambda^A, rho^S) on its last axis but one, (..., 4, 4) at one
    momentum or (..., N, 4, 4) on a batch, any leading axes broadcast, as
    ``physical_states`` returns them; the result has the same shape.  Rows 1
    and 0 stacked are the eight-component equation of the stack
    (lambda^S, rho^A), rows 3 and 2 that of (lambda^A, rho^S).

    gamma.p psi is applied by its blocks, ((E + sigma.p) psi_L,
    (E - sigma.p) psi_R), elementwise over all rows; no 4x4 matrix is
    formed.
    """
    ep, em, pl, pr = (column(x) for x in (p.E + p.pz, p.E - p.pz, p.p_l, p.p_r))
    r0, r1, l0, l1 = (psi[..., k] for k in range(4))
    eqs = np.empty(psi.shape, dtype=complex)
    # sigma.p = [[pz, pl], [pr, -pz]]
    eqs[..., 0] = ep * l0 + pl * l1
    eqs[..., 1] = pr * l0 + em * l1
    eqs[..., 2] = em * r0 - pl * r1
    eqs[..., 3] = ep * r1 - pr * r0
    eqs *= _KINETIC_SIGNS[conv.sign]
    partners = psi.take(_PARTNERS, axis=-2)
    # in place: a batch holds one (N, 4, 4) temporary fewer
    partners *= _MASS_SIGNS * np.asarray(p.m)[..., None, None]
    eqs -= partners
    return eqs


def worst_coupled_residual(p, conv: FrequencyConvention, states):
    """Per row, the largest residual norm over the four coupled equations
    and both indices, for the block from ``physical_states``; a float at one
    momentum, an (N,) array on a batch."""
    return np.max(rownorm(coupled_equations(p, conv, states)), axis=(0, -1))


def coupled_system_residual(p, conv: FrequencyConvention):
    """Norm residuals of the four coupled equations, max over both indices;
    floats at one momentum, (N,) arrays on a batch.

    Order as in ``coupled_equations``.  With the correct convention all
    four vanish; with the wrong one at least one is of order m at every
    momentum.
    """
    eqs = coupled_equations(p, conv, physical_states(p))
    return tuple(rownorm(eqs).max(axis=0).T)


def discover_convention(momenta) -> FrequencyConvention:
    """Try both plane-wave assignments; exactly one must work.  ``momenta``
    is a batch or an iterable of momenta.

    Each row's residual is taken relative to E max|psi| over the physical
    states, the scale of gamma.p psi, so the decision holds at any mass and
    boost.  The wrong assignment leaves a relative residual of about 2m/|p|;
    where that reaches rounding level both pass, and the call raises.  The
    physical states are built once for both assignments.
    """
    tol = TOLERANCES["identity"]
    batch = as_batch(momenta)
    states = physical_states(batch)
    scale = batch.E * physical_state_scale(states)
    winners = [conv for conv in (FrequencyConvention(1), FrequencyConvention(-1))
               if np.all(worst_coupled_residual(batch, conv, states) <= tol * scale)]
    if len(winners) == 2 and len(batch):
        raise DomainError("both conventions solve the coupled equations: in the "
                          "ultra-relativistic limit 2m/|p| is at rounding level")
    if len(winners) != 1:
        raise DomainError(f"expected exactly one working convention, found {len(winners)}")
    return winners[0]


def markov_superposition(p, particle_weights=(1.0, 0.0),
                         antiparticle_weights=(1.0, 0.0)) -> MarkovPair:
    """chi = (psi1 + psi2)/sqrt(2), eta = (psi1 - psi2)/sqrt(2) from a
    positive-mass solution psi1 and a negative-mass solution psi2.

    Each weight is a number at one momentum, or an (N,) array on a batch,
    where chi and eta are (N, 4) rows.  The pair satisfies the
    cross-coupled system gamma.p chi = m eta, gamma.p eta = m chi, and the
    map (psi1, psi2) -> (chi, eta) is an isometry of the stacked norm.
    A weight that is not finite raises ``DomainError``.
    """
    check_finite(particle_weights=particle_weights, antiparticle_weights=antiparticle_weights)
    w1, w2 = (np.asarray(w)[..., None] for w in (particle_weights, antiparticle_weights))
    psi1 = (w1[0] * dirac_components(p, "particle", "up")
            + w1[1] * dirac_components(p, "particle", "down"))
    psi2 = (w2[0] * dirac_components(p, "antiparticle", "up")
            + w2[1] * dirac_components(p, "antiparticle", "down"))
    return MarkovPair((psi1 + psi2) / math.sqrt(2.0), (psi1 - psi2) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# two-mass (scalar + pseudoscalar mass) equation
# ---------------------------------------------------------------------------

def sen_gupta_operator(e, px, py, pz, m1, m2) -> np.ndarray:
    """gamma.p - m1 - m2 gamma5 for an arbitrary four-vector, or (N, 4, 4)
    when any argument is an (N,) array; raises on a non-finite argument."""
    check_finite(e=e, px=px, py=py, pz=pz, m1=m1, m2=m2)
    m1, m2 = (np.asarray(x)[..., None, None] for x in (m1, m2))
    return slash(e, px, py, pz) - m1 * np.eye(4, dtype=complex) - m2 * gamma5


def sen_gupta_residual(p, m1, m2, psi):
    """Norm of (gamma.p - m1 - m2 gamma5) psi at an on-shell momentum; an
    (N,) array on a batch, with (N,) masses or floats and (N, 4) psi."""
    vec = psi.components if isinstance(psi, Bispinor) else np.asarray(psi, dtype=complex)
    op = sen_gupta_operator(p.E, p.px, p.py, p.pz, m1, m2)
    return rownorm(matvec(op, vec))


_NULL_RCOND = 1e-9   # zero singular values: below this times max(1, the largest)


def sen_gupta_null_space(e, px, py, pz, m1, m2):
    """Null-space basis of the two-mass operator as a list of (4,) rows;
    empty off the generalised shell p^2 = m1^2 - m2^2 (no exception).  With
    (N,) arguments (scalars broadcast), one such list per row, from one SVD
    of the (N, 4, 4) operators."""
    op = sen_gupta_operator(e, px, py, pz, m1, m2)
    _, svals, vh = np.linalg.svd(op)
    zero = svals < _NULL_RCOND * np.maximum(1.0, svals[..., :1])
    nulls = [list(v[keep]) for v, keep in zip(vh.conj().reshape(-1, 4, 4), zero.reshape(-1, 4))]
    return nulls if op.ndim == 3 else nulls[0]


def sen_gupta_equivalence(m1, m2) -> np.ndarray:
    """Invertible E with E (gamma.p - m1 - m2 gamma5) E = gamma.p - mu,
    mu = sqrt(m1^2 - m2^2); valid for |m2| < |m1|.  (N, 4, 4) for (N,)
    masses.

    E = exp(b gamma5) with tanh(2b) = -m2/m1: conjugating the kinetic term
    through gamma5 flips its sign twice while the mass matrix picks up
    exp(2 b gamma5), which is tuned to cancel the pseudoscalar part.  A
    solution psi of the two-mass equation maps to the Dirac solution
    E^-1 psi of mass mu.  Both masses must be finite.
    """
    check_finite(m1=m1, m2=m2)
    if not np.all(np.abs(m2) < np.abs(m1)):
        raise DomainError(f"equivalence transform needs |m2| < |m1|, got {m1}, {m2}")
    b = -0.5 * np.arctanh(np.asarray(m2 / m1))[..., None, None]
    return np.cosh(b) * np.eye(4, dtype=complex) + np.sinh(b) * gamma5


# ---------------------------------------------------------------------------
# 8-component equation
# ---------------------------------------------------------------------------

def eight_component_residual(p, conv: FrequencyConvention):
    """Max residual of the 8-component equation over both stacks and
    indices; a float at one momentum, an (N,) array on a batch.

    Its kinetic block [[0, gamma.p], [gamma.p, 0]] maps the stack (x, y) to
    (gamma.p y, gamma.p x), so each stack's residual is the norm of its
    pair of coupled equations and no 8x8 matrix is formed.  The block
    commutes with the axial matrix diag(gamma5, -gamma5), so the
    axial-coupled covariant derivative is consistent.
    """
    eqs = coupled_equations(p, conv, physical_states(p))
    pairs = eqs.reshape(eqs.shape[:-2] + (2, 8))
    return np.max(rownorm(pairs), axis=(0, -1))


# ---------------------------------------------------------------------------
# mass term of the Lagrangian
# ---------------------------------------------------------------------------

def lagrangian_mass_term(lambda_s, rho_a, lambda_a, rho_s, m: float) -> complex:
    """-m (lbar^S rho^A + rbar^A lambda^S - lbar^A rho^S - rbar^S lambda^A).

    Accepts Bispinors or bare 4-vectors; real whenever the two pairings are
    mutual conjugates, which they are for any field configuration.  A mass
    that is not finite raises ``DomainError``.
    """
    check_finite(m=m)
    return -m * (
        bar_product(lambda_s, rho_a)
        + bar_product(rho_a, lambda_s)
        - bar_product(lambda_a, rho_s)
        - bar_product(rho_s, lambda_a)
    )


def doublet_mass_term(d, r, m: float) -> complex:
    """-m sum_i (dbar_i r_i + rbar_i d_i) over a pair of doublets.

    With d = (lambda^S, lambda^A) and r = (rho^A, -rho^S) this equals the
    Lagrangian mass term; the doublet form is the one left invariant by a
    common SU(2) phase rotation of d and r.  A mass that is not finite
    raises ``DomainError``.
    """
    check_finite(m=m)
    total = 0.0 + 0.0j
    for di, ri in zip(d, r):
        total += bar_product(di, ri) + bar_product(ri, di)
    return -m * total


def rotate_doublet(u, doublet):
    """Apply a 2x2 phase-transformation matrix across a doublet of fields;
    an (N, 2, 2) stack acts row by row on (N, 4) fields."""
    a, b = (x.components if isinstance(x, Bispinor) else np.asarray(x) for x in doublet)
    u = np.asarray(u)[..., None]
    return (u[..., 0, 0, :] * a + u[..., 0, 1, :] * b, u[..., 1, 0, :] * a + u[..., 1, 1, :] * b)
