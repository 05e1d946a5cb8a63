import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest

from elko import spin_one as s1
from elko.errors import DomainError
from elko.kinematics import as_batch, boost_one, make_momenta, make_momentum, sample_momenta
from elko.matrices import (SPIN1_J, rownorm, spin1_dot, spin1_jy, spin1_jz, sqnorm,
                           theta_one, vdot)

from bits import assert_rows_same_bits, assert_same_bits

_I3 = np.eye(3, dtype=complex)


class TestWignerMatrix:
    def test_negates_diagonal_generator(self):
        assert np.allclose(theta_one @ spin1_jz @ np.linalg.inv(theta_one), -np.conj(spin1_jz))

    def test_squares_to_identity(self):
        assert np.allclose(theta_one @ theta_one, np.eye(3))

    def test_conjugation_property_all_generators(self):
        for j in SPIN1_J:
            assert np.linalg.norm(theta_one @ j @ np.linalg.inv(theta_one) + np.conj(j)) <= 1e-14

    def test_real_orthogonal_symmetric(self):
        assert np.linalg.norm(theta_one.imag) == 0
        assert np.allclose(theta_one, theta_one.T)
        assert np.allclose(theta_one @ theta_one.conj().T, np.eye(3))


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

    @pytest.mark.parametrize("phase", [0.0, 0.9, 2.1])
    def test_twisted_operator_is_the_chirality_times_the_conjugation(self, phase):
        """Gamma5 Sc, built once, is the product of the two operators'
        matrices bit for bit, with the conjugation's phase."""
        op, sc = s1.gamma5_sc_one(phase), s1.sc_one(phase)
        assert_same_bits(op.matrix, s1.gamma5_one() @ sc.matrix)
        assert op.phase == sc.phase and op.antilinear

    def test_chirality_anticommutes_with_conjugation_block(self):
        g5 = s1.gamma5_one()
        cm = s1.sc_one().matrix
        assert np.linalg.norm(g5 @ cm + cm @ g5) <= 1e-14


def _along(theta, phi, pabs=2.0, m=0.5):
    """On-shell momenta of magnitude pabs along the directions (theta, phi),
    one momentum for float angles, a batch for (N,) arrays."""
    st = np.sin(theta)
    vec = (pabs * st * np.cos(phi), pabs * st * np.sin(phi), pabs * np.cos(theta))
    return make_momenta(*vec, m) if np.ndim(theta) else make_momentum(*vec, m)


class TestHelicityTriplet:
    def test_z_axis_eigenvectors(self):
        for p in (make_momentum(0.0, 0.0, 0.0, 1.0), make_momentum(0.0, 0.0, 2.0, 1.0)):
            for h, col in ((1, [1, 0, 0]), (0, [0, 1, 0]), (-1, [0, 0, 1])):
                assert np.allclose(s1.spin1_helicity_triplet_at(p, h), col)

    def test_eigenrelation_generic_angles(self, rng):
        for _ in range(10):
            p = _along(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            jn = spin1_dot(*p.direction())
            for h in (1, 0, -1):
                f = s1.spin1_helicity_triplet_at(p, h)
                assert np.linalg.norm(jn @ f - h * f) <= 1e-13

    def test_invalid_helicity_rejected(self):
        with pytest.raises(DomainError):
            s1.spin1_helicity_triplet_at(make_momentum(0.0, 0.0, 0.0, 1.0), 2)

    def test_closed_forms_match_the_frozen_rotation_columns(self, rng):
        """The triplets of a batch and of its rows against the rotation
        columns at the momenta's own angles (theta read off ``half_angles``),
        on and near both ends of the z axis."""
        theta = np.concatenate([rng.uniform(0, math.pi, 1000), [0.0, math.pi, 1e-9, math.pi - 1e-9]])
        phi = np.concatenate([rng.uniform(0, 2 * math.pi, 1000), [0.0, 1.0, 2.0, 6.0]])
        batch = _along(theta, phi)
        cos_half, sin_half, azimuth = batch.half_angles
        rotation = _frozen_rotation(2.0 * np.arctan2(sin_half, cos_half), azimuth)
        for h, column in ((1, 0), (0, 1), (-1, 2)):
            assert np.max(np.abs(s1.spin1_helicity_triplet_at(batch, h)
                                 - rotation[..., column])) <= 1e-15
            for k in (0, 1000, 1001, 1003):   # one momentum: a (3,) vector
                f = s1.spin1_helicity_triplet_at(batch[k], h)
                assert f.shape == (3,)
                assert np.max(np.abs(f - rotation[k, :, column])) <= 1e-15


def _frozen_rotation(theta, phi):
    """The rotation the triplets were once read off: exp(-i phi Jz)
    exp(-i theta Jy) in closed form via J^3 = J; (N, 3, 3)."""
    def rot(j, angle):
        c, s = (np.asarray(f(angle))[..., None, None] for f in (np.cos, np.sin))
        return _I3 - 1j * j * s + (j @ j) * (c - 1.0)

    return rot(spin1_jz, phi) @ rot(spin1_jy, theta)


def _reference_pair(p, construction, h):
    """(x, y) to 50 digits from the recipe of the old matrix builders: the
    triplet as a column of exp(-i phi Jz) exp(-i theta Jy), then the blocks
    boosted by exp(+-(J.n) rapidity), all in mpmath; each exponential is
    summed in closed form through (J.n)^3 = J.n."""
    with mpmath.workdps(50):
        px, py, pz, m = (mpmath.mpf(x) for x in (p.px, p.py, p.pz, p.m))
        pabs = mpmath.sqrt(px * px + py * py + pz * pz)
        theta = mpmath.acos(pz / pabs) if pabs else mpmath.mpf(0)
        phi = mpmath.atan2(py, px) if pabs else mpmath.mpf(0)
        r = 1 / mpmath.sqrt(2)   # the generators of SPIN1_J, at 50 digits
        j = [mpmath.matrix([[0, r, 0], [r, 0, r], [0, r, 0]]),
             mpmath.matrix([[0, -1j * r, 0], [1j * r, 0, -1j * r], [0, 1j * r, 0]]),
             mpmath.diag([1, 0, -1])]
        jn = (px * j[0] + py * j[1] + pz * j[2]) / pabs if pabs else mpmath.zeros(3)
        sinh, cosh = pabs / m, mpmath.sqrt(pabs * pabs + m * m) / m
        right = mpmath.eye(3) + jn * sinh + jn * jn * (cosh - 1)
        left = mpmath.eye(3) - jn * sinh + jn * jn * (cosh - 1)
        rotation = [mpmath.eye(3) - 1j * jk * mpmath.sin(a) + jk * jk * (mpmath.cos(a) - 1)
                    for jk, a in ((j[2], phi), (j[1], theta))]
        f = (rotation[0] * rotation[1])[:, 1 - h]
        flipped = mpmath.matrix(theta_one.tolist()) * f.conjugate()
        zero = mpmath.zeros(3, 1)
        if construction == "lambda":
            blocks = (zero, left * f), (right * flipped, zero)
        else:
            blocks = (right * f, zero), (zero, left * flipped)
        return tuple(np.array([complex(v) for part in pair for v in part]) for pair in blocks)


class TestSixSpinors:
    def test_rest_frame_blocks(self):
        p = make_momentum(0, 0, 0, 1.0)
        f = s1.spin1_helicity_triplet_at(p, 1)
        assert np.array_equal(f, [1, 0, 0])
        x, y = s1.spin1_pair(p, "lambda", 1)
        assert np.array_equal(x, np.concatenate([np.zeros(3), f]))
        assert np.array_equal(y, np.concatenate([theta_one @ np.conj(f), np.zeros(3)]))

    @pytest.mark.parametrize("construction", ["lambda", "rho"])
    def test_pair_matches_the_frozen_builders(self, construction):
        """The old builders' recipe, evaluated to 50 digits, at every boost
        from rest to |p| = 1e6 m and along, near and off the z axis."""
        directions = [(0.2, -0.3, -0.9), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1e-9, 0.0, 1.0),
                      (1e-9, 0.0, -1.0), (0.6, 0.8, 0.0)]
        momenta = [make_momentum(*(ratio * 0.7 * np.array(d) / np.linalg.norm(d)), 0.7)
                   for ratio in (0.0, 1e-3, 1.0, 10.0, 1e3, 1e6) for d in directions]
        for p, h in itertools.product(momenta, (1, 0, -1)):
            x, y = s1.spin1_pair(p, construction, h)
            xr, yr = _reference_pair(p, construction, h)
            for zeta in (1.0, -1.0, 1j, cmath.exp(0.4j)):
                reference = xr + zeta * yr
                assert np.linalg.norm(x + zeta * y - reference) <= 1e-15 * np.linalg.norm(reference)

    def test_batch_rows_match_single_momenta(self, random_momenta):
        """Each row of a batch's pair is its momentum's pair bit for bit, for
        every construction and helicity.  The last row's boost factor
        ((E + |p|)/m)^-1 rounds differently under C's pow and numpy's
        reciprocal."""
        rows = [*random_momenta(8), make_momentum(-2.355316560779121, 2.316522852498883,
                                                  -1.0919545295611417, 1.6781248099405575)]
        for construction, h in itertools.product(("lambda", "rho"), (1, 0, -1)):
            assert_rows_same_bits(s1.spin1_pair(as_batch(rows), construction, h),
                                  [s1.spin1_pair(p, construction, h) for p in rows])

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

    def test_twisted_minima_hold_up_to_large_boosts(self):
        m = 1.3
        ratios = np.repeat([1.0, 1e2, 1e4, 1e6], 2)
        d = np.array([[0.36, -0.48, 0.8], [0.0, 0.6, -0.8]] * 4)
        batch = make_momenta(*(ratios[:, None] * m * d).T, m)
        for construction, h in itertools.product(("lambda", "rho"), (1, 0, -1)):
            scan = s1.spin1_conjugacy_scan(batch, "g5sc", construction, h)
            for best, zeta in ((scan.self_minimum, 1.0), (scan.anti_minimum, -1.0)):
                assert np.max(best.residual) <= 1e-10
                assert np.max(np.abs(best.zeta - zeta)) <= 1e-10

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

    @pytest.mark.parametrize("operator,phase", [("sc", 0.0), ("sc", 0.7),
                                                ("g5sc", 0.0), ("g5sc", 0.7)])
    def test_scan_of_generic_rows_against_a_dense_direct_scan(self, operator, phase):
        """On generic complex (x, y) rows, not spin-1 pairs, each minimum
        is at most the least of ||Op s -+ s|| / ||(x, y)|| evaluated directly,
        s = x + zeta y, at 7,200 zetas evenly spaced on the circle (the kernel
        scans 720 and refines), and the residual re-evaluated directly at the
        returned zeta is the returned residual."""
        rng = np.random.default_rng(25)
        x, y = (rng.normal(size=(300, 6)) + 1j * rng.normal(size=(300, 6)) for _ in range(2))
        op = {"sc": s1.sc_one, "g5sc": s1.gamma5_sc_one}[operator](phase)
        zeta, residual = s1.scan_pairs(x, y, op)
        scale = np.sqrt(np.linalg.norm(x, axis=-1) ** 2 + np.linalg.norm(y, axis=-1) ** 2)

        def squares(z):   # z: (..., 300), one zeta per row; |Op s -+ s|^2, self and anti
            s = x + z[..., None] * y
            image = op.phase * np.conj(s) @ op.matrix.T
            return [np.einsum("...i,...i->...", d, d)
                    for d in ((image - sign * s).view(float) for sign in (1.0, -1.0))]

        least = np.full((2, 300), np.inf)
        for chunk in np.split(np.exp(2j * np.pi * np.arange(7200) / 7200), 720):
            least = np.minimum(least, [np.min(d2, axis=0) for d2 in squares(chunk[:, None])])
        dense = np.sqrt(least) / scale
        again = np.sqrt([squares(zeta[k])[k] for k in (0, 1)]) / scale
        assert np.max(residual - dense) <= 1e-15
        assert np.max(np.abs(again - residual) / residual) <= 1e-15

    @pytest.mark.parametrize("layout", ["reversed", "fortran"])
    @pytest.mark.parametrize("operator", ["sc", "g5sc"])
    def test_scan_of_rows_in_any_layout_is_that_of_their_contiguous_copy(self, layout,
                                                                         operator):
        """Rows read through a reversed view or in Fortran order scan to the
        (zeta, residual) bits of their row-major copy."""
        rng = np.random.default_rng(29)
        x, y = (rng.normal(size=(40, 6)) + 1j * rng.normal(size=(40, 6)) for _ in range(2))
        op = {"sc": s1.sc_one, "g5sc": s1.gamma5_sc_one}[operator](0.4)
        arrange = {"reversed": lambda v: v[:, ::-1], "fortran": np.asfortranarray}[layout]
        rows = [arrange(v) for v in (x, y)]
        assert not any(v.flags.c_contiguous for v in rows)
        got = s1.scan_pairs(*rows, op)
        want = s1.scan_pairs(*(np.ascontiguousarray(v) for v in rows), op)
        assert_same_bits(got, want)

    def test_scan_of_single_precision_rows_is_that_of_their_double_copy(self):
        """complex64 rows scan to the residuals of the same rows in
        complex128, to float32 precision."""
        rng = np.random.default_rng(30)
        x, y = (rng.normal(size=(40, 6)) + 1j * rng.normal(size=(40, 6)) for _ in range(2))
        single = [v.astype(np.complex64) for v in (x, y)]
        op = s1.gamma5_sc_one(0.4)
        zeta, residual = s1.scan_pairs(*single, op)
        want_zeta, want_residual = s1.scan_pairs(*(v.astype(complex) for v in single), op)
        assert np.max(np.abs(residual - want_residual)) <= 1e-6 * np.max(want_residual)
        assert np.max(np.abs(zeta - want_zeta)) <= 1e-6

    @pytest.mark.parametrize("operator,phase", [("sc", 0.0), ("g5sc", 0.0), ("g5sc", 0.7)])
    def test_grid_minima_are_the_closed_form_zetas(self, operator, phase):
        """x and y sit in opposite chiral blocks, so with a and b the
        operator's images of x and y as ``scan_pairs`` forms them,
        |Op s -+ s|^2 = 2|s|^2 -+ 2 Re(conj(zeta) w), w = <x, b> + <y, a>:
        the minima sit at zeta = +-w/|w|.  The residual evaluated directly
        there matches the grid scan's for every (construction, h) pair, and
        so does zeta under the twisted operator, where the minima vanish.
        Where w = 0 (the bare conjugation at h = 0) every zeta is a
        minimum and zeta = 1 stands in."""
        off = 1e-9   # rad off -z
        edges = [(0.0, 0.0, 0.0, 1.3), (0.0, 0.0, 2.0, 0.7), (0.0, 0.0, -2.0, 0.7),
                 (3.0 * math.sin(off), 0.0, -3.0 * math.cos(off), 1.1)]
        sampled = sample_momenta(np.random.default_rng(18), 1000)
        batch = make_momenta(*np.concatenate(
            [np.stack([sampled.px, sampled.py, sampled.pz, sampled.m]), np.array(edges).T],
            axis=1))
        op = {"sc": s1.sc_one, "g5sc": s1.gamma5_sc_one}[operator](phase)
        signs = np.array([1.0, -1.0])[:, None, None]   # self, anti
        for construction, h in itertools.product(("lambda", "rho"), (1, 0, -1)):
            x, y = s1.spin1_pair(batch, construction, h)
            zeta, residual = s1.scan_pairs(x, y, op)
            a, b = (op.phase * (np.conj(v) @ op.matrix.T) for v in (x, y))
            w = vdot(x, b) + vdot(y, a)
            modulus = np.abs(w)
            unit = np.divide(w, modulus, out=np.ones_like(w), where=modulus > 0)
            closed = np.stack([unit, -unit])[..., None]
            d = a + np.conj(closed) * b - signs * (x + closed * y)
            direct = rownorm(d) / np.sqrt(sqnorm(x) + sqnorm(y))
            assert np.max(np.abs(direct - residual)) <= 1e-14, (construction, h)
            if operator == "g5sc":
                assert np.max(np.abs(closed[..., 0] - zeta)) <= 1e-14, (construction, h)


class TestBoostInteraction:
    def test_wigner_conjugate_of_the_right_boost_is_the_left_one(self):
        # Theta conj(Lambda_R) Theta = Lambda_L, the identity behind the
        # persistence of the rest-frame zetas
        rng = np.random.default_rng(5)
        ratios = np.concatenate([[0.0, 1e-3, 1.0, 10.0, 1e3, 1e6], rng.uniform(0, 10, 20)])
        d = rng.normal(size=(len(ratios), 3))
        m = np.exp(rng.uniform(np.log(0.1), np.log(10.0), len(ratios)))
        vec = (ratios * m)[:, None] * d / np.linalg.norm(d, axis=-1)[:, None]
        batch = make_momenta(*vec.T, m)
        right, left = boost_one(batch, "R"), boost_one(batch, "L")
        residual = np.linalg.norm(theta_one @ np.conj(right) @ theta_one - left, axis=(-2, -1))
        assert np.all(residual <= 1e-15 * np.linalg.norm(left, axis=(-2, -1)))

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
