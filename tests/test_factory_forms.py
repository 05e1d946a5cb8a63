"""The one bit reference for the 24 spin-1/2 factory outputs, and the coupled
rows and ``physical_states`` against frozen forms, bit for bit, zero signs
included.

The reference is written out without the kernels that it pins.  Of a
momentum it reads the components and the fields ``half_angles``,
``boost_norm``, ``p_abs``, ``p_l`` and ``p_r``; of a ``PhaseConfig`` only
``factors``:

* lambda and rho in the fixed-axis basis are their closed forms, one
  written-out branch per family, kind and index;
* u and v in the fixed-axis basis are columns of the written-out 2x2 boosts;
* in the helicity basis, the 2-spinor phi_h is formed from its own half-angle
  cosine and sine, and the Wigner image Theta (e^{i theta_h} phi_h)* as
  -h e^{-i theta_h} phi_{-h}; the boost acts as its written-out eigenvalue.

Each product keeps the factories' operand order, a table times its scale:
numpy's complex product fuses a multiply-add, so the order decides the sign
of a zero part, which ``elko eval`` prints.  Two tests compare every output
with the reference under the three ``PHASE_CONFIGS``: at one momentum, and
on one batch.  The rows are ``bit_rows`` (the edges of the domain, rows with
signed-zero and subnormal components, generic rows), one at a time and as
one batch with 1000 generic rows.  ``test_batch`` checks that each
one-momentum call is its row of the batch.
"""

import itertools

import numpy as np
import pytest

from elko import dynamics as dyn
from elko import kinematics as kin
from elko import spinors as sp
from elko.matrices import matrix2, rownorm, vector

from conftest import PHASE_CONFIGS, assert_same_bits

_FACTORIES = ([(sp.lambda_spinor, "lambda", kind) for kind in sp.KINDS_SELF]
              + [(sp.rho_spinor, "rho", kind) for kind in sp.KINDS_SELF]
              + [(sp.dirac_spinor, "u", "particle"), (sp.dirac_spinor, "v", "antiparticle")])
_SPINORS = list(itertools.product(_FACTORIES, sp.INDICES, sp.BASES))


@pytest.fixture(scope="module")
def batch(bit_rows):
    """The bit rows, then 1000 generic rows, as one batch."""
    generic = kin.sample_momenta(np.random.default_rng(11), 1000)
    return kin.make_momenta(*np.concatenate(
        [np.array(bit_rows).T, [generic.px, generic.py, generic.pz, generic.m]], axis=1))


# ---------------------------------------------------------------------------
# the reference
# ---------------------------------------------------------------------------

def boost_matrix(p, side):
    """Lambda_R (side "R") or Lambda_L: (E + m +- sigma.p) / sqrt(2 m (E + m)),
    each off-diagonal entry one numpy product."""
    s = 1.0 if side == "R" else -1.0
    c = 1.0 / p.boost_norm
    em = p.E + p.m
    return matrix2((em + s * p.pz) * c, np.multiply(s * c, p.p_l),
                   np.multiply(s * c, p.p_r), (em - s * p.pz) * c)


def _eigenvalue_factor(p, s):
    """Lambda_R on a sigma.p-hat eigen-2-spinor of eigenvalue s = +-1:
    (E + m + s |p|) / sqrt(2 m (E + m)), with E + m - |p| formed as
    m + m^2 / (E + |p|)."""
    num = p.E + p.m + p.p_abs if s > 0 else p.m + p.m * p.m / (p.E + p.p_abs)
    return num / p.boost_norm


# lambda and rho in the fixed-axis basis, times c = 1 / (2 sqrt(E + m)), in
# p_l, p_r, pp = E + pz + m and pm = E - pz + m
_FIXED_AXIS = {
    ("lambda", "S", "up"): lambda pl, pr, pp, pm: [1j * pl, 1j * pm, pm, -pr],
    ("lambda", "S", "down"): lambda pl, pr, pp, pm: [-1j * pp, -1j * pr, -pl, pp],
    ("lambda", "A", "up"): lambda pl, pr, pp, pm: [-1j * pl, -1j * pm, pm, -pr],
    ("lambda", "A", "down"): lambda pl, pr, pp, pm: [1j * pp, 1j * pr, -pl, pp],
    ("rho", "S", "up"): lambda pl, pr, pp, pm: [pp, pr, 1j * pl, -1j * pp],
    ("rho", "S", "down"): lambda pl, pr, pp, pm: [pl, pm, 1j * pm, -1j * pr],
    ("rho", "A", "up"): lambda pl, pr, pp, pm: [pp, pr, -1j * pl, 1j * pp],
    ("rho", "A", "down"): lambda pl, pr, pp, pm: [pl, pm, -1j * pm, 1j * pr],
}


def two_spinor(p, h):
    """phi_h, the sigma.p-hat eigen-2-spinor of eigenvalue h = +-1 at zero
    phase, from the half-angle cosine and sine:
    phi_+ = (cos e^{-i phi/2}, sin e^{i phi/2}),
    phi_- = (sin e^{-i phi/2}, -cos e^{i phi/2})."""
    ct, st, phi = p.half_angles
    ep = np.exp(0.5j * phi)
    em = np.conj(ep)
    return vector(ct * em, st * ep) if h > 0 else vector(st * em, -ct * ep)


def reference_components(family, p, kind, index, basis, cfg):
    """The components of a factory output, (4,) or (N, 4)."""
    col = lambda x: np.asarray(x)[..., None]
    h = 1 if index == "up" else -1
    e = cfg.factors[h < 0]
    if family in ("u", "v"):
        s, sm = (1.0 if family == "u" else -1.0), np.sqrt(p.m)
        if basis == "spinorial":
            j = 0 if index == "up" else 1
            halves = [boost_matrix(p, "R")[..., j], boost_matrix(p, "L")[..., j]]
            scales = [sm, sm, s * sm, s * sm]
        else:
            halves = [e * two_spinor(p, h)] * 2
            upper, lower = sm * _eigenvalue_factor(p, h), s * sm * _eigenvalue_factor(p, -h)
            scales = [upper, upper, lower, lower]
        return np.concatenate(halves, axis=-1) * np.array(scales).T
    if basis == "spinorial":
        table = np.array(_FIXED_AXIS[family, kind, index](
            p.p_l, p.p_r, p.E + p.pz + p.m, p.E - p.pz + p.m), dtype=complex)
        return (table * (1.0 / (2.0 * np.sqrt(p.E + p.m)))).T
    zeta = {"S": 1j, "A": -1j}[kind] if family == "lambda" else {"S": -1j, "A": 1j}[kind]
    # zeta Theta (e phi_h)* = zeta (-h e* phi_{-h})
    image = np.conj(e) * two_spinor(p, -h) * (-zeta if h > 0 else zeta)
    f = e * two_spinor(p, h)
    rest = np.concatenate([image, f] if family == "lambda" else [f, image], axis=-1)
    rest = rest * col(np.sqrt(p.m / 2.0))
    return rest * col(_eigenvalue_factor(p, -h if family == "lambda" else h))


_IDS = [f"{f[1]}-{f[2]}-{i}-{b}" for f, i, b in _SPINORS]


@pytest.mark.parametrize("factory,index,basis", _SPINORS, ids=_IDS)
def test_factory_keeps_its_bits(bit_rows, factory, index, basis):
    """Each factory output against the reference at one momentum, for every
    configuration, with the labels of the public construction."""
    fn, family, kind = factory
    for cfg in PHASE_CONFIGS:
        for row in bit_rows:
            p = kin.make_momentum(*row)
            got = fn(p, kind, index, basis, cfg)
            assert (got.family, got.kind, got.index, got.basis) == (family, kind, index, basis)
            assert got.momentum is p
            assert_same_bits(got.components, reference_components(family, p, kind, index,
                                                                  basis, cfg))


@pytest.mark.parametrize("factory,index,basis", _SPINORS, ids=_IDS)
def test_components_keep_their_bits_on_a_batch(batch, factory, index, basis):
    """Each components kernel against the reference on the batch, for every
    configuration.  That each row is its one-momentum call is checked in
    ``test_batch``."""
    _, family, kind = factory
    components = {"lambda": sp.lambda_components, "rho": sp.rho_components}.get(
        family, sp.dirac_components)
    for cfg in PHASE_CONFIGS:
        assert_same_bits(components(batch, kind, index, basis, cfg),
                         reference_components(family, batch, kind, index, basis, cfg))


# ---------------------------------------------------------------------------
# the coupled rows and the physical states
# ---------------------------------------------------------------------------

def _frozen_coupled_equations(p, conv, psi):
    ep, em, pl, pr = (np.asarray(x)[..., None] for x in (p.E + p.pz, p.E - p.pz, p.p_l, p.p_r))
    r0, r1, l0, l1 = (psi[..., k] for k in range(4))
    eqs = np.empty_like(psi)
    eqs[..., 0] = ep * l0 + pl * l1
    eqs[..., 1] = pr * l0 + em * l1
    eqs[..., 2] = em * r0 - pl * r1
    eqs[..., 3] = ep * r1 - pr * r0
    mass_signs = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    eqs *= conv.sign * mass_signs
    partners = psi.take([1, 0, 3, 2], axis=-2)
    partners *= mass_signs * np.asarray(p.m)[..., None, None]
    eqs -= partners
    return eqs


def _factory_states(p):
    """The physical states from the per-state spinorial factories, stacked
    as (index, state, component): (lambda^S, rho^A, lambda^A, rho^S) for
    each index."""
    return np.stack([np.stack([components(p, kind, index, "spinorial")
                               for components, kind in ((sp.lambda_components, "S"),
                                                        (sp.rho_components, "A"),
                                                        (sp.lambda_components, "A"),
                                                        (sp.rho_components, "S"))], axis=-2)
                     for index in sp.INDICES])


def _frozen_coupled_residual(p, conv):
    eqs = _frozen_coupled_equations(p, conv, _factory_states(p))
    return tuple(rownorm(eqs).max(axis=0).T)


def _frozen_eight_component_residual(p, conv):
    eqs = _frozen_coupled_equations(p, conv, _factory_states(p))
    return np.max(rownorm(eqs.reshape(eqs.shape[:-2] + (2, 8))), axis=(0, -1))


@pytest.mark.parametrize("sign", [1, -1])
def test_coupled_residuals_keep_their_bits(bit_rows, sign):
    conv = dyn.FrequencyConvention(sign)
    batch = kin.make_momenta(*np.array(bit_rows).T)
    for p in (*(kin.make_momentum(*row) for row in bit_rows), batch):
        got = dyn.coupled_system_residual(p, conv)
        want = _frozen_coupled_residual(p, conv)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        assert_same_bits(dyn.eight_component_residual(p, conv),
                         _frozen_eight_component_residual(p, conv))


def test_physical_states_and_coupled_rows_keep_their_bits(bit_rows):
    """``physical_states`` is one row-major block of the per-state factory
    outputs, bit for bit, and ``coupled_equations`` on it the frozen rows,
    under both conventions."""
    batch = kin.make_momenta(*np.array(bit_rows).T)
    for p in (*(kin.make_momentum(*row) for row in bit_rows), batch):
        states, want = dyn.physical_states(p), _factory_states(p)
        assert states.flags.c_contiguous
        assert_same_bits(states, want)
        for sign in (1, -1):
            conv = dyn.FrequencyConvention(sign)
            assert_same_bits(dyn.coupled_equations(p, conv, states),
                             _frozen_coupled_equations(p, conv, want))
