"""The spinor factories and the coupled residuals against frozen copies of
the forms they replace, bit for bit, zero signs included.

The frozen forms wrap each spinor through the public ``Bispinor``
construction, form the Wigner image with the conjugate of a numpy phase
factor and join the rest spinor's halves with ``np.concatenate``, scale the
Dirac columns by a separate factor array, and stack the four physical
states, each gathered on its own, before the coupled rows.  The live
kernels read windows of the momentum's ``helicity_ring``, the
configuration's ``dressings`` and one gather of the physical states
instead.  Every one of the 24 factory outputs is compared at the default
phases and at others, on the edges of the domain and on rows with
signed-zero and subnormal components.
"""

import itertools
import math

import numpy as np
import pytest

from elko import dynamics as dyn
from elko import kinematics as kin
from elko import spinors as sp
from elko.matrices import column, rownorm, vector

from conftest import assert_same_bits

_CONFIGS = (sp.PhaseConfig(), sp.PhaseConfig(theta_c=0.4, theta1=0.9, theta2=-2.3),
            sp.PhaseConfig(theta1=1e-300, theta2=math.pi))
_FACTORIES = ([(sp.lambda_spinor, "lambda", kind) for kind in sp.KINDS_SELF]
              + [(sp.rho_spinor, "rho", kind) for kind in sp.KINDS_SELF]
              + [(sp.dirac_spinor, "u", "particle"), (sp.dirac_spinor, "v", "antiparticle")])
_SPINORS = list(itertools.product(_FACTORIES, sp.INDICES, sp.BASES))


@pytest.fixture(scope="module")
def rows(edge_rows):
    """The edge rows, rows with signed zeros and subnormal components, and
    a few generic rows."""
    signed = [(1.0, -0.0, 0.0, 1.0), (-0.0, 1.0, -0.0, 0.5), (-1.0, 0.0, -0.0, 1e-3),
              (0.0, -0.0, 3.0, 1e-150), (-0.0, 0.0, -2.5, 0.8)]
    subnormal = [(5e-324, 0.0, 1.5, 1.0), (0.0, 5e-324, -1.5, 2.0), (-5e-324, -0.0, 0.0, 1.0),
                 (1e-310, -1e-310, 1e-300, 1.0), (2.0, -3.0, -1e-320, 0.5),
                 (1e-160, 1e-160, -1e-160, 1e-150)]
    generic = kin.sample_momenta(np.random.default_rng(15), 6)
    return [*edge_rows, *signed, *subnormal,
            *zip(generic.px.tolist(), generic.py.tolist(), generic.pz.tolist(),
                 generic.m.tolist())]


# ---------------------------------------------------------------------------
# frozen forms
# ---------------------------------------------------------------------------

def _frozen_pair(p):
    """(phi_+, phi_-) as the momentum once held them: two views of its
    ``helicity_ring``."""
    ring = p.helicity_ring
    return ring[..., 0:2], ring[..., 4:6]


def _frozen_helicity_rest(pair, family, kind, h, cfg, m):
    e = cfg.factors[h < 0]
    zeta = sp._ZETA[family][kind]
    f = e * pair[h < 0]
    image = (-zeta if h > 0 else zeta) * (e.conjugate() * pair[h > 0])
    halves = [image, f] if family == "lambda" else [f, image]
    return column(kin._sqrt(m / 2.0)) * np.concatenate(halves, axis=-1)


def _frozen_components(family, p, kind, index, basis, cfg):
    h = 1 if index == "up" else -1
    if family in ("u", "v"):
        s, sm = (1.0 if family == "u" else -1.0), kin._sqrt(p.m)
        if basis == "spinorial":
            col = 0 if index == "up" else 1
            right, left = kin._boost_columns(p, "R")[col], kin._boost_columns(p, "L")[col]
            return vector(*right, *left) * np.array([sm, sm, s * sm, s * sm]).T
        f = cfg.factors[h < 0] * _frozen_pair(p)[h < 0]
        upper, lower = sm * kin.boost_eigenvalue(p, h), s * sm * kin.boost_eigenvalue(p, -h)
        return np.concatenate([f, f], axis=-1) * np.array([upper, upper, lower, lower]).T
    if basis == "spinorial":
        return sp.boosted_patterns(p, sp._GATHER[family, kind, index])
    s = -h if family == "lambda" else h
    return column(kin.boost_eigenvalue(p, s)) * _frozen_helicity_rest(_frozen_pair(p), family,
                                                                      kind, h, cfg, p.m)


def _frozen_coupled_equations(p, conv, states):
    psi = np.stack(states, axis=-2)
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


def _frozen_physical_states(p):
    """(lambda^S, rho^A, lambda^A, rho^S), each with both indices stacked
    first, from one pattern gather per state."""
    return [np.array([sp.boosted_patterns(p, sp._GATHER[family, kind, index])
                      for index in sp.INDICES])
            for family, kind in (("lambda", "S"), ("rho", "A"), ("lambda", "A"), ("rho", "S"))]


def _frozen_coupled_residual(p, conv):
    eqs = _frozen_coupled_equations(p, conv, _frozen_physical_states(p))
    return tuple(rownorm(eqs).max(axis=0).T)


def _frozen_eight_component_residual(p, conv):
    eqs = _frozen_coupled_equations(p, conv, _frozen_physical_states(p))
    return np.max(rownorm(eqs.reshape(eqs.shape[:-2] + (2, 8))), axis=(0, -1))


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory,index,basis", _SPINORS,
                         ids=[f"{f[1]}-{f[2]}-{i}-{b}" for f, i, b in _SPINORS])
def test_factory_keeps_its_bits(rows, factory, index, basis):
    """Each factory output at one momentum: the labels of the public
    construction and the components bit for bit, for every configuration."""
    fn, family, kind = factory
    for cfg, row in itertools.product(_CONFIGS, rows):
        p = kin.make_momentum(*row)
        got = fn(p, kind, index, basis, cfg)
        want = sp.Bispinor(_frozen_components(family, p, kind, index, basis, cfg),
                           family, kind, index, basis, p)
        assert (got.family, got.kind, got.index, got.basis) == (family, kind, index, basis)
        assert got.momentum is p
        assert_same_bits(got.components, want.components)


@pytest.mark.parametrize("factory,index,basis", _SPINORS,
                         ids=[f"{f[1]}-{f[2]}-{i}-{b}" for f, i, b in _SPINORS])
def test_components_keep_their_bits_on_a_batch(rows, factory, index, basis):
    _, family, kind = factory
    batch = kin.make_momenta(*np.array(rows).T)
    components = {"lambda": sp.lambda_components, "rho": sp.rho_components}.get(
        family, sp.dirac_components)
    for cfg in _CONFIGS:
        assert_same_bits(components(batch, kind, index, basis, cfg),
                         _frozen_components(family, batch, kind, index, basis, cfg))


@pytest.mark.parametrize("sign", [1, -1])
def test_coupled_residuals_keep_their_bits(rows, sign):
    conv = dyn.FrequencyConvention(sign)
    batch = kin.make_momenta(*np.array(rows).T)
    for p in (*(kin.make_momentum(*row) for row in rows), batch):
        got = dyn.coupled_system_residual(p, conv)
        want = _frozen_coupled_residual(p, conv)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        assert_same_bits(dyn.eight_component_residual(p, conv),
                         _frozen_eight_component_residual(p, conv))


def test_physical_states_and_coupled_rows_keep_their_bits(rows):
    """``physical_states`` are the frozen per-state gathers, row-major, and
    ``coupled_equations`` the frozen rows, under both conventions."""
    batch = kin.make_momenta(*np.array(rows).T)
    for p in (*(kin.make_momentum(*row) for row in rows), batch):
        states, frozen = dyn.physical_states(p), _frozen_physical_states(p)
        for got, want in zip(states, frozen):
            assert got.flags.c_contiguous
            assert_same_bits(got, want)
        for sign in (1, -1):
            conv = dyn.FrequencyConvention(sign)
            assert_same_bits(dyn.coupled_equations(p, conv, *states),
                             _frozen_coupled_equations(p, conv, frozen))
