import math

import numpy as np
import pytest

from elko import kinematics as kin
from elko.errors import DomainError
from elko.matrices import spin1_dot


def test_rest_momentum_scalars():
    p = kin.make_momentum(0, 0, 0, 1.0)
    assert p.E == pytest.approx(1.0)
    assert p.p_plus == pytest.approx(1.0)
    assert p.p_minus == pytest.approx(1.0)
    assert p.p_r == 0 and p.p_l == 0


def test_transverse_momentum_scalars():
    p = kin.make_momentum(3, 4, 0, 0.5)
    assert p.E == pytest.approx(math.sqrt(25.25))
    assert p.p_r == pytest.approx(3 + 4j)
    assert p.p_l == pytest.approx(3 - 4j)


def test_negative_z_momentum_scalars():
    p = kin.make_momentum(0, 0, -2, 1.0)
    assert p.E == pytest.approx(math.sqrt(5.0))
    assert p.p_plus == pytest.approx(p.E - 2)
    assert p.p_minus == pytest.approx(p.E + 2)


def test_on_shell_invariant(random_momenta):
    for p in random_momenta(30):
        rhs = math.sqrt(p.px ** 2 + p.py ** 2 + p.pz ** 2 + p.m ** 2)
        assert abs(p.E - rhs) <= 1e-14 * rhs


def test_nonpositive_mass_rejected():
    with pytest.raises(DomainError):
        kin.make_momentum(1, 0, 0, 0.0)
    with pytest.raises(DomainError):
        kin.make_momentum(1, 0, 0, -2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(bad):
    for args in ((bad, 0, 0, 1.0), (0, bad, 0, 1.0), (0, 0, bad, 1.0), (1, 0, 0, abs(bad))):
        with pytest.raises(DomainError):
            kin.make_momentum(*args)


def test_light_cone_components_do_not_cancel():
    # E - pz at pz = 1e8, m = 1 is 1 / (E + pz) = 5e-9, not the rounded 0.0
    p = kin.make_momentum(0, 0, 1e8, 1.0)
    assert p.p_minus == pytest.approx(5e-9, rel=1e-15)
    assert p.p_plus == 2 * p.E
    q = kin.make_momentum(3e-4, 4e-4, -1e8, 1.0)
    assert q.p_plus == pytest.approx((1.0 + 25e-8) / (q.E + 1e8), rel=1e-15)
    # exact light-cone product p+ p- = m^2 + p_perp^2
    for r in (p, q, kin.make_momentum(0.3, -0.2, 0.1, 0.7)):
        assert r.p_plus * r.p_minus == pytest.approx(r.m ** 2 + r.px ** 2 + r.py ** 2,
                                                     rel=1e-15)


def test_parity_reflect_definition_and_involution(random_momenta):
    p = kin.make_momentum(1, 2, 3, 1.5)
    q = kin.parity_reflect(p)
    assert (q.px, q.py, q.pz) == (-1, -2, -3)
    assert q.E == p.E and q.m == p.m
    for p in random_momenta(10):
        r = kin.parity_reflect(kin.parity_reflect(p))
        assert (r.px, r.py, r.pz, r.E) == (p.px, p.py, p.pz, p.E)


def test_angular_reflection():
    a = kin.AngularParams(math.pi / 3, math.pi / 4)
    r = a.reflected()
    assert r.theta == pytest.approx(2 * math.pi / 3)
    assert r.phi == pytest.approx(5 * math.pi / 4)


def _polar(p):
    """(theta, phi) of p's direction read off ``half_angles``:
    theta = 2 atan2(sin(theta/2), cos(theta/2))."""
    cos_half, sin_half, phi = kin.half_angles(p)
    return 2.0 * np.arctan2(sin_half, cos_half), phi


def test_angles_of_momentum():
    theta, phi = _polar(kin.make_momentum(1, 1, 0, 1.0))
    assert theta == pytest.approx(math.pi / 2)
    assert phi == pytest.approx(math.pi / 4)


def test_polar_angle_keeps_its_digits_near_the_z_axis():
    # pz/|p| rounds to +-1 here, where arccos would give exactly 0 or pi
    assert _polar(kin.make_momentum(1e-9, 0.0, 1.0, 1.0))[0] == pytest.approx(1e-9, rel=1e-15)
    assert _polar(kin.make_momentum(0.0, 1e-9, -1.0, 1.0))[0] == pytest.approx(
        math.pi - 1e-9, rel=0, abs=1e-15)
    assert _polar(kin.make_momentum(0.0, 0.0, -2.0, 1.0)) == (math.pi, 0.0)


def test_batch_angles_are_the_row_angles():
    # one theta per momentum, whether it is asked for alone or in a batch
    rng = np.random.default_rng(7)
    batch = kin.make_momenta(*rng.normal(size=(3, 200)), 1.0)
    batch = kin.as_batch([kin.make_momentum(0, 0, 0, 1.0), kin.make_momentum(0, 0, -1, 1.0),
                          kin.make_momentum(1e-9, 0, 1, 1.0), *batch])
    theta, phi = _polar(batch)
    for i, p in enumerate(batch):
        assert _polar(p) == (theta[i], phi[i])


def test_azimuth_that_rounds_to_two_pi_is_zero():
    # atan2 gives -1e-17 here, which folds onto a value that rounds to 2 pi
    p = kin.make_momentum(1.0, -1e-17, 0.0, 1.0)
    assert _polar(p) == (math.pi / 2, 0.0)
    assert kin.half_angles(p)[2] == 0.0
    batch = kin.make_momenta([1.0, 1.0], [-1e-17, 1e-17], 0.0, 1.0)
    assert list(kin.half_angles(batch)[2]) == [0.0, 1e-17]


class TestBoostHalf:
    def test_rest_is_identity(self):
        p = kin.make_momentum(0, 0, 0, 3.0)
        for side in "RL":
            assert np.allclose(kin.boost_half(p, side), np.eye(2))

    def test_unit_determinant(self, random_momenta):
        for p in random_momenta(20):
            for side in "RL":
                assert abs(np.linalg.det(kin.boost_half(p, side)) - 1.0) <= 1e-12

    def test_hermitian_positive_and_inverse_adjoint(self, random_momenta):
        for p in random_momenta(20):
            r = kin.boost_half(p, "R")
            l = kin.boost_half(p, "L")
            assert np.allclose(r, r.conj().T)
            assert np.all(np.linalg.eigvalsh(r) > 0)
            # Lambda_L = (Lambda_R^dagger)^-1; the boosts themselves are not
            # unitary away from rest
            assert np.linalg.norm(l - np.linalg.inv(r.conj().T)) <= 1e-12 * np.linalg.norm(l)
            if p.p_abs > 1e-3 * p.m:
                assert not np.allclose(r @ r.conj().T, np.eye(2))


class TestBoostOne:
    def test_rest_is_identity(self):
        p = kin.make_momentum(0, 0, 0, 1.0)
        assert np.allclose(kin.boost_one(p, "R"), np.eye(3))

    def test_generator_cube_closes_series(self, random_momenta):
        for p in random_momenta(10):
            if p.p_abs == 0:
                continue
            k = spin1_dot(p.vec / p.p_abs)
            assert np.linalg.norm(k @ k @ k - k) <= 1e-12

    def test_closed_form_matches_series(self, random_momenta):
        for p in random_momenta(10):
            if p.p_abs == 0:
                continue
            x = math.acosh(p.E / p.m)
            halvings = max(0, math.ceil(math.log2(max(x, 1e-9) / 0.5)))
            arg = spin1_dot(p.vec / p.p_abs) * (x / 2 ** halvings)
            series = np.zeros((3, 3), dtype=complex)
            term = np.eye(3, dtype=complex)
            for order in range(20):
                series += term
                term = term @ arg / (order + 1)
            for _ in range(halvings):
                series = series @ series
            assert np.linalg.norm(series - kin.boost_one(p, "R")) <= 1e-12


def test_boost_one_z_axis_eigenvalues():
    p = kin.make_momentum(0, 0, math.sqrt(3.0), 1.0)  # E/m = 2
    expected = np.diag([2 + math.sqrt(3.0), 1.0, 2 - math.sqrt(3.0)])
    assert np.linalg.norm(kin.boost_one(p, "R") - expected) <= 1e-12
    assert np.linalg.norm(kin.boost_one(p, "L") - np.linalg.inv(expected)) <= 1e-12
