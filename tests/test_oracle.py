"""Exact symbolic proofs (sympy) of two identities the kernels build on.

* In the chiral basis gamma0 E - gamma.p equals [[0, E + sigma.p],
  [E - sigma.p, 0]], the block form ``dynamics.slash`` assembles.
* Xi = diag(1, e^{-2 i phi}) / sqrt(2) intertwines both half boosts with
  their conjugates, Xi Lambda_{R,L} = Lambda*_{R,L} Xi, for
  Lambda = (E + m +- sigma.p) / sqrt(2 m (E + m)) and p in polar form.
"""

import numpy as np
import sympy

from elko import dynamics as dyn
from elko import kinematics as kin
from elko import matrices as mat
from elko import operators as ops

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
