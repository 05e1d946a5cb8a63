"""Exact symbolic proofs (sympy) of the identities the kernels build on.

* In the chiral basis gamma0 E - gamma.p equals [[0, E + sigma.p],
  [E - sigma.p, 0]], the block form ``dynamics.slash`` assembles.
* Xi = diag(1, e^{-2 i phi}) / sqrt(2) intertwines both half boosts with
  their conjugates, Xi Lambda_{R,L} = Lambda*_{R,L} Xi, for
  Lambda = (E + m +- sigma.p) / sqrt(2 m (E + m)) and p in polar form.
* The Wigner images of the phased helicity pair are the other member of the
  pair, Theta (e^{i theta1} phi_+)* = -e^{-i(theta1 + theta2)} (e^{i theta2} phi_-)
  and Theta (e^{i theta2} phi_-)* = e^{-i(theta1 + theta2)} (e^{i theta1} phi_+),
  which the helicity kernel reads off the momentum's pair.
* The spinorial read-offs are the boosted rest spinors: sqrt(m) times the
  columns of ``kinematics._boost_columns`` is sqrt(m) diag(Lambda_R,
  +-Lambda_L) (e_j, e_j), and the pattern table's gathered products times
  c = 1/(2 sqrt(E + m)) are sqrt(m/2) diag(Lambda_R, Lambda_L) on each
  lambda/rho rest pattern, with global phase 1.
* For a spin-1 six-spinor s = x + zeta y with x and y in opposite chiral
  blocks, |Op s -+ s|^2 = 2 (|x|^2 + |y|^2) -+ 2 Re(conj(zeta) w) with
  w = <x, b> + <y, a>, a = Op x and b = Op y, under both ``sc_one`` and
  ``gamma5_sc_one``: the conjugacy residual is one harmonic in zeta.
* The spin-1 conjugations square to (Sc)^2 = -1 and (Gamma5 Sc)^2 = +1 as
  antilinear maps v -> e^{i phi} M conj(v), for every operator phase phi.
* Charge conjugation C v = -gamma2 conj(v) has eigenvalue +1 on lambda^S
  and rho^S and -1 on lambda^A and rho^A: on the spinorial read-offs at a
  symbolic momentum, and on the helicity family at symbolic angles and
  phases theta1, theta2.
* The coupled lambda/rho equations vanish on the spinorial read-offs under
  exactly one frequency convention; under the other, each row is
  -2 (mass sign) m times its partner state.
"""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from elko import dynamics as dyn
from elko import kinematics as kin
from elko import matrices as mat
from elko import operators as ops
from elko import spin_one as s1
from elko import spinors as sp

I = sympy.I
SIGMA = (sympy.Matrix([[0, 1], [1, 0]]), sympy.Matrix([[0, -I], [I, 0]]),
         sympy.Matrix([[1, 0], [0, -1]]))
ZERO2, EYE2 = sympy.zeros(2, 2), sympy.eye(2)


def _block(a, b, c, d):
    return sympy.Matrix(sympy.BlockMatrix([[a, b], [c, d]]))


# chiral basis, right-handed block on top
GAMMA = (_block(ZERO2, EYE2, EYE2, ZERO2),
         *(_block(ZERO2, -s, s, ZERO2) for s in SIGMA))


def _sigma_dot(v):
    return sum((vk * s for vk, s in zip(v, SIGMA)), ZERO2)


def test_symbolic_gammas_are_the_library_gammas():
    for exact, numeric in zip(GAMMA, mat.GAMMA):
        assert np.array_equal(np.array(exact, dtype=complex), numeric)


def test_gamma_p_is_the_sigma_p_block_matrix():
    e, px, py, pz = sympy.symbols("E p_x p_y p_z", real=True)
    sp = _sigma_dot((px, py, pz))
    four_gamma_sum = GAMMA[0] * e - GAMMA[1] * px - GAMMA[2] * py - GAMMA[3] * pz
    blocks = _block(ZERO2, e * EYE2 + sp, e * EYE2 - sp, ZERO2)
    assert sympy.simplify(four_gamma_sum - blocks) == sympy.zeros(4, 4)
    # the library's block construction at an exact rational point
    point = {e: sympy.Rational(7, 2), px: sympy.Rational(1, 4), py: -sympy.Rational(3, 8),
             pz: sympy.Rational(5, 16)}
    exact = np.array(blocks.subs(point), dtype=complex)
    assert np.array_equal(dyn.slash(3.5, 0.25, -0.375, 0.3125), exact)


def test_xi_intertwines_both_half_boosts_exactly():
    m, pabs = sympy.symbols("m p", positive=True)
    theta, phi = sympy.symbols("theta phi", real=True)
    vec = (pabs * sympy.sin(theta) * sympy.cos(phi), pabs * sympy.sin(theta) * sympy.sin(phi),
           pabs * sympy.cos(theta))
    energy = sympy.sqrt(pabs ** 2 + m ** 2)
    xi = sympy.diag(1, sympy.exp(-2 * I * phi)) / sympy.sqrt(2)
    for sign in (1, -1):
        lam = ((energy + m) * EYE2 + sign * _sigma_dot(vec)) / sympy.sqrt(2 * m * (energy + m))
        defect = xi * lam - lam.conjugate() * xi
        assert defect.applyfunc(lambda z: sympy.simplify(z.rewrite(sympy.exp))) == ZERO2
    # and the library's Xi is this matrix
    p = kin.make_momentum(0.3, -0.4, 0.5, 1.0)
    phi_p = float(np.arctan2(p.py, p.px))
    exact = np.array(xi.subs(phi, phi_p).evalf(20), dtype=complex)
    assert np.allclose(ops.xi_matrix(p), exact, rtol=0, atol=4e-16)


# ---------------------------------------------------------------------------
# the helicity pair and its Wigner images
# ---------------------------------------------------------------------------

THETA_HALF = sympy.Matrix([[0, -1], [1, 0]])   # -i sigma_y


def _helicity_pair(theta, phi):
    c, s = sympy.cos(theta / 2), sympy.sin(theta / 2)
    em, ep = sympy.exp(-I * phi / 2), sympy.exp(I * phi / 2)
    return sympy.Matrix([c * em, s * ep]), sympy.Matrix([s * em, -c * ep])


def _vanishes(matrix):
    return matrix.applyfunc(lambda z: sympy.simplify(z.rewrite(sympy.exp))) == sympy.zeros(
        *matrix.shape)


def test_symbolic_theta_is_the_library_theta():
    assert np.array_equal(np.array(THETA_HALF, dtype=complex), mat.theta_half)


def test_wigner_images_of_the_phased_helicity_pair_exactly():
    theta, phi, t1, t2 = sympy.symbols("theta phi theta1 theta2", real=True)
    plus, minus = _helicity_pair(theta, phi)
    dressed_plus, dressed_minus = sympy.exp(I * t1) * plus, sympy.exp(I * t2) * minus
    both = sympy.exp(-I * (t1 + t2))
    assert _vanishes(THETA_HALF * dressed_plus.conjugate() + both * dressed_minus)
    assert _vanishes(THETA_HALF * dressed_minus.conjugate() - both * dressed_plus)
    # both are sigma.n eigenvectors, eigenvalues +1 and -1, of unit norm
    n = (sympy.sin(theta) * sympy.cos(phi), sympy.sin(theta) * sympy.sin(phi), sympy.cos(theta))
    assert _vanishes(_sigma_dot(n) * plus - plus)
    assert _vanishes(_sigma_dot(n) * minus + minus)
    assert sympy.simplify((plus.H * plus)[0]) == 1


@pytest.mark.parametrize("h", [1, -1])
def test_library_pair_and_image_are_the_symbolic_ones(h):
    theta, phi, t1, t2 = sympy.symbols("theta phi theta1 theta2", real=True)
    plus, minus = _helicity_pair(theta, phi)
    p = kin.make_momentum(0.3, -0.4, 0.5, 1.0)
    cos_half, sin_half, azimuth = p.half_angles
    cfg = sp.PhaseConfig(theta1=0.9, theta2=-2.3)
    point = {theta: 2.0 * math.atan2(sin_half, cos_half), phi: azimuth, t1: cfg.theta1,
             t2: cfg.theta2}
    ring = p.helicity_ring   # (phi_+, phi_+, phi_-, phi_-, phi_+)
    for got, exact in zip((ring[0:2], ring[4:6]), (plus, minus)):
        assert np.allclose(got, np.array(exact.subs(point).evalf(20), dtype=complex)[:, 0],
                           rtol=0, atol=4e-16)
    own = sympy.exp(I * (t1 if h > 0 else t2)) * (plus if h > 0 else minus)
    exact_image = I * THETA_HALF * own.conjugate()
    halves = sp._dressed_halves(p.helicity_ring, "lambda", "S", h, cfg)   # zeta = +i
    for got, exact in ((halves[:2], exact_image), (halves[2:], own)):
        assert np.allclose(got, np.array(exact.subs(point).evalf(20), dtype=complex)[:, 0],
                           rtol=0, atol=4e-16)


# ---------------------------------------------------------------------------
# the spinorial read-offs
# ---------------------------------------------------------------------------

def _symbolic_momentum():
    m = sympy.symbols("m", positive=True)
    px, py, pz = sympy.symbols("p_x p_y p_z", real=True)
    energy = sympy.sqrt(px ** 2 + py ** 2 + pz ** 2 + m ** 2)
    p = SimpleNamespace(E=energy, m=m, pz=pz, p_r=px + I * py, p_l=px - I * py,
                        boost_norm=sympy.sqrt(2 * m * (energy + m)))
    # the library's own expression for the boosts' off-diagonal entries
    p.boost_off_diagonal = kin._OnShell.boost_off_diagonal.func(p)
    boosts = [((energy + m) * EYE2 + sign * _sigma_dot((px, py, pz)))
              / sympy.sqrt(2 * m * (energy + m)) for sign in (1, -1)]
    return p, boosts, (px, py, pz, m)


def _exact(expr):
    """The library's float literals (1.0, -1.0) as integers."""
    return sympy.nsimplify(expr)


@pytest.mark.parametrize("sign", [1, -1])
def test_dirac_column_read_off_is_the_boosted_rest_spinor(sign):
    p, (lam_r, lam_l), (px, py, pz, m) = _symbolic_momentum()
    columns = {side: kin._boost_columns(p, side) for side in ("R", "L")}
    for j in (0, 1):
        read_off = sympy.sqrt(m) * sympy.Matrix(
            [*(_exact(x) for x in columns["R"][j]), *(sign * _exact(x) for x in columns["L"][j])])
        e_j = sympy.Matrix([int(j == 0), int(j == 1)])
        boosted = sympy.sqrt(m) * sympy.Matrix.vstack(lam_r * e_j, sign * lam_l * e_j)
        assert sympy.simplify(read_off - boosted) == sympy.zeros(4, 1)
    # and the library's Dirac spinor is this read-off at a point
    q = kin.make_momentum(0.3, -0.4, 0.5, 1.1)
    point = {px: q.px, py: q.py, pz: q.pz, m: q.m}
    for j, index in enumerate(sp.INDICES):
        e_j = sympy.Matrix([int(j == 0), int(j == 1)])
        exact = (sympy.sqrt(m) * sympy.Matrix.vstack(lam_r * e_j, sign * lam_l * e_j)).subs(point)
        got = sp.dirac_components(q, "particle" if sign > 0 else "antiparticle", index)
        assert np.allclose(got, np.array(exact.evalf(20), dtype=complex)[:, 0], rtol=0,
                           atol=1e-15)


def _spinorial_read_off(p, key):
    """The pattern table's gathered products for one (family, kind, index)
    times c = 1/(2 sqrt(E + m)), at a ``_symbolic_momentum``."""
    entries = (p.E + p.pz + p.m, p.p_r, p.p_l, p.E - p.pz + p.m, -p.p_r, -p.p_l)
    c = 1 / (2 * sympy.sqrt(p.E + p.m))
    products, positions = sp._GATHER[key]
    table = [unit * entries[e] for unit, e in products]
    return sympy.Matrix([c * _exact(x) for x in np.array(table, dtype=object)[positions]])


def test_pattern_table_read_off_is_the_boosted_rest_pattern():
    p, (lam_r, lam_l), _ = _symbolic_momentum()
    boost = sympy.diag(lam_r, lam_l)
    for family, kind, index in sp._GATHER:
        read_off = _spinorial_read_off(p, (family, kind, index))
        pattern = sympy.Matrix([_exact(complex(z)) for z in sp._REST_PATTERNS[family][kind, index]])
        boosted = sympy.sqrt(p.m / 2) * boost * pattern
        assert sympy.simplify(read_off - boosted) == sympy.zeros(4, 1), (family, kind, index)


# ---------------------------------------------------------------------------
# the spin-1 conjugacy residual as one harmonic in zeta
# ---------------------------------------------------------------------------

def _complex_triplet(name):
    re, im = sympy.symbols(f"{name}_re0:3", real=True), sympy.symbols(f"{name}_im0:3", real=True)
    return sympy.Matrix([r + I * i for r, i in zip(re, im)])


def _sqnorm(v):
    return sum(sympy.expand(z * sympy.conjugate(z)) for z in v)


def _inner(u, v):
    return sum(sympy.conjugate(a) * b for a, b in zip(u, v))


@pytest.mark.parametrize("operator", [s1.sc_one, s1.gamma5_sc_one])
@pytest.mark.parametrize("construction", ["lambda", "rho"])
def test_spin_one_residual_is_one_harmonic_in_zeta(operator, construction):
    """The exact ground of a closed-form zeta minimiser: with the operator's
    matrix taken from the library and a free unit phase e^{i phi}, the
    identity holds for every zeta = e^{i t} and both signs.  lambda has x in
    the left-handed block and y in the right-handed one, rho the reverse
    (``spin1_pair``, checked at one momentum)."""
    matrix = operator().matrix
    exact = sympy.Matrix(matrix.real.astype(int))
    assert np.array_equal(np.array(exact, dtype=complex), matrix)
    t, phi = sympy.symbols("t phi", real=True)
    zeta, zero = sympy.exp(I * t), sympy.zeros(3, 1)
    f, g = _complex_triplet("f"), _complex_triplet("g")
    if construction == "lambda":
        x, y = sympy.Matrix.vstack(zero, f), sympy.Matrix.vstack(g, zero)
    else:
        x, y = sympy.Matrix.vstack(f, zero), sympy.Matrix.vstack(zero, g)
    x_num, y_num = s1.spin1_pair(kin.make_momentum(0.3, -0.4, 0.5, 1.1), construction, 1)
    for exact_part, numeric in ((x, x_num), (y, y_num)):
        assert np.all((numeric == 0) == [z == 0 for z in exact_part])

    def act(v):   # Op v = phase M conj(v), as scan_pairs applies it
        return sympy.exp(I * phi) * exact * v.conjugate()

    s = x + zeta * y
    w = _inner(x, act(y)) + _inner(y, act(x))
    for sign in (1, -1):
        residual = _sqnorm(act(s) - sign * s)
        harmonic = 2 * (_sqnorm(x) + _sqnorm(y)) - 2 * sign * sympy.re(sympy.conjugate(zeta) * w)
        assert sympy.simplify(sympy.expand(sympy.expand_complex(residual - harmonic))) == 0


@pytest.mark.parametrize("operator,square", [(s1.sc_one, -1), (s1.gamma5_sc_one, 1)])
def test_spin_one_conjugations_square_to_their_sign_exactly(operator, square):
    """Op v = e^{i phi} M conj(v) applied twice is M conj(M) v: the phase
    cancels against its conjugate, so (Sc)^2 = -1 and (Gamma5 Sc)^2 = +1
    hold for a free phase phi on a generic six-vector.  M is the library's
    matrix, which the phase leaves alone (checked at phases 0, 0.9 and
    pi/2, where the library's phase factor is e^{i phi})."""
    matrix = operator().matrix
    exact = sympy.Matrix(matrix.real.astype(int))
    assert np.array_equal(np.array(exact, dtype=complex), matrix)
    for phase in (0.0, 0.9, math.pi / 2):
        op = operator(phase)
        assert op.antilinear and np.array_equal(op.matrix, matrix)
        assert op.phase == cmath.exp(1j * phase)
    phi = sympy.symbols("phi", real=True)
    v = sympy.Matrix.vstack(_complex_triplet("f"), _complex_triplet("g"))

    def act(u):   # as SymmetryOperator.apply acts, conjugation first
        return sympy.exp(I * phi) * exact * u.conjugate()

    assert sympy.simplify(sympy.expand(act(act(v)) - square * v)) == sympy.zeros(6, 1)


# ---------------------------------------------------------------------------
# the C eigenvalues of the four families
# ---------------------------------------------------------------------------

# the eigenvalue of C on each kind, at zero conjugation phase
_C_EIGENVALUE = {"S": 1, "A": -1}


def _charge_conjugate(v):
    """C v = -gamma2 conj(v), checked against the library's operator."""
    c_op = ops.charge_conjugation()
    assert c_op.antilinear and c_op.phase == 1
    assert np.array_equal(np.array(-GAMMA[2], dtype=complex), c_op.matrix)
    return -GAMMA[2] * v.conjugate()


def test_spinorial_read_offs_are_charge_conjugation_eigenstates_exactly():
    p, _, _ = _symbolic_momentum()
    for family, kind, index in sp._GATHER:
        read_off = _spinorial_read_off(p, (family, kind, index))
        defect = _charge_conjugate(read_off) - _C_EIGENVALUE[kind] * read_off
        assert sympy.simplify(defect) == sympy.zeros(4, 1), (family, kind, index)


@pytest.mark.parametrize("family", ["lambda", "rho"])
def test_helicity_family_is_a_charge_conjugation_eigenstate_exactly(family):
    """lambda = b (zeta Theta f*, f) and rho = b (f, zeta Theta f*) for
    f = e^{i theta_h} phi_h, with b > 0 standing for sqrt(m/2) times the
    boost's real eigenvalue; the library's halves are these at a point."""
    theta, phi, t1, t2 = sympy.symbols("theta phi theta1 theta2", real=True)
    b = sympy.symbols("b", positive=True)
    plus, minus = _helicity_pair(theta, phi)
    p = kin.make_momentum(0.3, -0.4, 0.5, 1.0)
    cos_half, sin_half, azimuth = p.half_angles
    cfg = sp.PhaseConfig(theta1=0.9, theta2=-2.3)
    point = {theta: 2.0 * math.atan2(sin_half, cos_half), phi: azimuth, t1: cfg.theta1,
             t2: cfg.theta2, b: 1}
    for kind in ("S", "A"):
        zeta = _exact(sp._ZETA[family][kind])
        for h, phase, pair in ((1, t1, plus), (-1, t2, minus)):
            f = sympy.exp(I * phase) * pair
            image = zeta * THETA_HALF * f.conjugate()
            v = b * (sympy.Matrix.vstack(image, f) if family == "lambda"
                     else sympy.Matrix.vstack(f, image))
            assert _vanishes(_charge_conjugate(v) - _C_EIGENVALUE[kind] * v), (kind, h)
            halves = sp._dressed_halves(p.helicity_ring, family, kind, h, cfg)
            assert np.allclose(halves, np.array(v.subs(point).evalf(20), dtype=complex)[:, 0],
                               rtol=0, atol=4e-16), (kind, h)


# ---------------------------------------------------------------------------
# the coupled lambda/rho system and its one convention
# ---------------------------------------------------------------------------

def test_coupled_system_vanishes_under_exactly_one_convention():
    """Row k is kinetic_k gamma.p psi_k - mass_k m partner_k over the
    quartet (lambda^S, rho^A, lambda^A, rho^S), with kinetic = sign * mass
    and mass = (+1, +1, -1, -1), as ``coupled_equations`` forms it."""
    p, _, (px, py, pz, m) = _symbolic_momentum()
    slash = GAMMA[0] * p.E - GAMMA[1] * px - GAMMA[2] * py - GAMMA[3] * pz
    mass_signs = [int(s) for s in dyn._MASS_SIGNS[:, 0]]
    partners = [int(k) for k in dyn._PARTNERS]
    unscale = 2 * sympy.sqrt(p.E + m)
    working = []
    for sign in (1, -1):
        vanishes = True
        for index in sp.INDICES:
            quartet = [_spinorial_read_off(p, (family, kind, index))
                       for family, kind in (("lambda", "S"), ("rho", "A"), ("lambda", "A"),
                                            ("rho", "S"))]
            for k, (psi, mass) in enumerate(zip(quartet, mass_signs)):
                partner = quartet[partners[k]]
                row = sign * mass * slash * psi - mass * m * partner
                # times 1/c = 2 sqrt(E + m), a polynomial in E, p and m with E^2 = p^2 + m^2
                if sympy.expand(row * unscale) != sympy.zeros(4, 1):
                    vanishes = False
                    # the wrong convention leaves -2 mass m times the partner
                    left = sympy.expand((row + 2 * mass * m * partner) * unscale)
                    assert left == sympy.zeros(4, 1)
                    assert partner.subs({px: 0, py: 0, pz: 0}) != sympy.zeros(4, 1)
        working += [sign] if vanishes else []
    assert len(working) == 1
    q = kin.make_momentum(0.3, -0.4, 0.5, 1.1)
    assert dyn.discover_convention([q]).sign == working[0]
