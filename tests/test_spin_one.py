import cmath
import itertools
import math

import numpy as np
import pytest

from elko import spin_one as s1
from elko.errors import DomainError
from elko.kinematics import as_batch, boost_one, make_momentum
from elko.matrices import SPIN1_J, spin1_dot, spin1_jz


class TestWignerMatrix:
    def test_negates_diagonal_generator(self):
        th = s1.wigner_theta_one()
        assert np.allclose(th @ spin1_jz @ np.linalg.inv(th), -np.conj(spin1_jz))

    def test_squares_to_identity(self):
        th = s1.wigner_theta_one()
        assert np.allclose(th @ th, np.eye(3))

    def test_conjugation_property_all_generators(self):
        th = s1.wigner_theta_one()
        for j in SPIN1_J:
            assert np.linalg.norm(th @ j @ np.linalg.inv(th) + np.conj(j)) <= 1e-14

    def test_real_orthogonal_symmetric(self):
        th = s1.wigner_theta_one()
        assert np.linalg.norm(th.imag) == 0
        assert np.allclose(th, th.T)
        assert np.allclose(th @ th.conj().T, np.eye(3))


class TestConjugationOperators:
    def test_sc_squares_to_minus_one(self, rng):
        for phase in (0.0, 0.9, math.pi / 2):
            op = s1.sc_one(phase)
            for _ in range(5):
                v = rng.normal(size=6) + 1j * rng.normal(size=6)
                assert np.linalg.norm(op.apply(op.apply(v)) + v) <= 1e-13 * np.linalg.norm(v)

    def test_block_swap_squares_to_identity(self, rng):
        op = s1.ss_one()
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.linalg.norm(op.apply(op.apply(v)) - v) <= 1e-13 * np.linalg.norm(v)

    def test_twisted_operator_squares_to_plus_one(self, rng):
        for phase in (0.0, 1.3):
            op = s1.gamma5_sc_one(phase)
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            assert np.linalg.norm(op.apply(op.apply(v)) - v) <= 1e-13 * np.linalg.norm(v)

    def test_chirality_anticommutes_with_conjugation_block(self):
        g5 = s1.gamma5_one()
        cm = s1.sc_one().matrix
        assert np.linalg.norm(g5 @ cm + cm @ g5) <= 1e-14


class TestHelicityTriplet:
    def test_z_axis_eigenvectors(self):
        for h, col in ((1, [1, 0, 0]), (0, [0, 1, 0]), (-1, [0, 0, 1])):
            assert np.allclose(s1.spin1_helicity_triplet(0.0, 0.0, h), col)

    def test_eigenrelation_generic_angles(self, rng):
        for _ in range(10):
            th = rng.uniform(0, math.pi)
            ph = rng.uniform(0, 2 * math.pi)
            n = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph),
                          math.cos(th)])
            jn = spin1_dot(n)
            for h in (1, 0, -1):
                f = s1.spin1_helicity_triplet(th, ph, h)
                assert np.linalg.norm(jn @ f - h * f) <= 1e-13

    def test_invalid_helicity_rejected(self):
        with pytest.raises(DomainError):
            s1.spin1_helicity_triplet(0.0, 0.0, 2)


def _frozen_six_spinor(p, construction, zeta, h):
    """The six-spinor builders spin1_lambda / spin1_rho as they were, at p's
    own angles: boost((zeta Theta f*, f)) and boost((f, zeta Theta f*))."""
    a = p.angles()
    f = s1.spin1_helicity_triplet(a.theta, a.phi, h)
    flipped = zeta * (s1.wigner_theta_one() @ np.conj(f))
    if construction == "lambda":
        return np.concatenate([boost_one(p, "R") @ flipped, boost_one(p, "L") @ f])
    return np.concatenate([boost_one(p, "R") @ f, boost_one(p, "L") @ flipped])


class TestSixSpinors:
    def test_rest_frame_blocks(self):
        p = make_momentum(0, 0, 0, 1.0)
        f = s1.spin1_helicity_triplet(0.0, 0.0, 1)
        x, y = s1.spin1_pair(p, "lambda", 1)
        assert np.array_equal(x, np.concatenate([np.zeros(3), f]))
        assert np.array_equal(y, np.concatenate([s1.wigner_theta_one() @ np.conj(f), np.zeros(3)]))

    @pytest.mark.parametrize("construction", ["lambda", "rho"])
    def test_pair_matches_the_frozen_builders(self, random_momenta, construction):
        momenta = [make_momentum(0, 0, 0, 1.3), make_momentum(1e-9, 0, 1, 1),
                   make_momentum(0.2, -0.3, -4.0, 0.5), *random_momenta(20)]
        for p, h in itertools.product(momenta, (1, 0, -1)):
            x, y = s1.spin1_pair(p, construction, h)
            for zeta in (1.0, -1.0, 1j, cmath.exp(0.4j)):
                frozen = _frozen_six_spinor(p, construction, zeta, h)
                assert np.linalg.norm(x + zeta * y - frozen) <= 1e-14 * np.linalg.norm(frozen)

    def test_batch_rows_match_single_momenta(self, random_momenta):
        rows = random_momenta(8)
        x, y = s1.spin1_pair(as_batch(rows), "rho", 0)
        for k, p in enumerate(rows):
            xp, yp = s1.spin1_pair(p, "rho", 0)
            assert np.allclose(x[k], xp, rtol=0, atol=1e-14)
            assert np.allclose(y[k], yp, rtol=0, atol=1e-14)

    def test_unknown_construction_rejected(self):
        with pytest.raises(DomainError):
            s1.spin1_pair(make_momentum(0, 0, 0, 1.0), "sigma", 1)

    def test_twisted_conjugacy_at_unit_zetas(self, random_momenta):
        op = s1.gamma5_sc_one()
        for p in random_momenta(5):
            for h, construction in itertools.product((1, 0, -1), ("lambda", "rho")):
                x, y = s1.spin1_pair(p, construction, h)
                for zeta in (1.0, -1.0):
                    v = x + zeta * y
                    assert np.linalg.norm(op.apply(v) - zeta * v) <= 1e-12 * np.linalg.norm(v)


class TestZetaScan:
    def test_bare_conjugation_has_no_solution(self):
        for p in (make_momentum(0, 0, 0, 1.0), make_momentum(0.5, -1.0, 0.3, 1.0)):
            for construction in ("lambda", "rho"):
                scan = s1.spin1_conjugacy_scan(p, "sc", construction)
                assert scan.floor_exceeded
                assert scan.self_minimum.residual > 0.1
                assert scan.anti_minimum.residual > 0.1

    def test_twisted_conjugation_minima_at_unit_zetas(self):
        p = make_momentum(0.4, 0.2, -0.7, 1.3)
        for construction in ("lambda", "rho"):
            for h in (1, 0, -1):
                scan = s1.spin1_conjugacy_scan(p, "g5sc", construction, h)
                assert scan.self_minimum.residual <= 1e-10
                assert scan.anti_minimum.residual <= 1e-10
                assert abs(scan.self_minimum.zeta - 1.0) <= 1e-6
                assert abs(scan.anti_minimum.zeta + 1.0) <= 1e-6
                assert not scan.floor_exceeded

    def test_phase_covariance(self):
        p = make_momentum(0.3, -0.4, 0.5, 1.0)
        phase = 0.7
        scan = s1.spin1_conjugacy_scan(p, "g5sc", "lambda", 1, op_phase=phase)
        assert abs(scan.self_minimum.zeta - cmath.exp(1j * phase)) <= 1e-6
        assert scan.self_minimum.residual <= 1e-10

    def test_unknown_operator_rejected(self):
        with pytest.raises(DomainError):
            s1.spin1_conjugacy_scan(make_momentum(0, 0, 0, 1.0), "nope")


class TestBoostInteraction:
    def test_conjugacy_persists_under_boosts(self, random_momenta):
        # the zeta values found at rest keep working at every boosted momentum
        op = s1.gamma5_sc_one()
        for p in random_momenta(10):
            x, y = s1.spin1_pair(p, "lambda", 1)
            for zeta in (1.0, -1.0):
                v = x + zeta * y
                assert np.linalg.norm(op.apply(v) - zeta * v) <= 1e-12 * np.linalg.norm(v)

    def test_measured_lambda_rho_relation(self):
        # the independently built rho equals the block swap of lambda at rest
        # (same zeta); record the structure
        p = make_momentum(0.2, 0.1, 0.5, 1.0)
        lam, rho = (sum(s1.spin1_pair(p, construction, 1)) for construction in ("lambda", "rho"))
        unboost = lambda s: np.concatenate([
            np.linalg.inv(boost_one(p, "R")) @ s[:3],
            np.linalg.inv(boost_one(p, "L")) @ s[3:]])
        swap = s1.ss_one().matrix
        assert np.allclose(swap @ unboost(lam), unboost(rho))
