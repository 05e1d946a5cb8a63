import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elko import dynamics as dyn
from elko import operators as ops
from elko import spin_one as s1
from elko import spinors as sp
from elko.config import TOLERANCES
from elko.errors import (
    CoordinateSingularityError,
    DimensionError,
    DirectionUndefinedError,
    DomainError,
)
from elko.kinematics import (_sqrt, _unit, as_batch, boost_half, make_momenta, make_momentum,
                             parity_reflect, sample_momenta)
from elko.matrices import (block_diag2, gamma0, gamma5, matrix2, matvec, pauli_dot, rownorm,
                           sigma_z, vdot)

from bits import assert_rows_same_bits, assert_same_bits


@pytest.mark.parametrize("phase", [complex("nan"), complex(1.0, float("nan")),
                                   complex(float("nan"), float("nan")), complex("inf"), 1.1])
def test_non_unimodular_phase_rejected(phase):
    """A NaN phase fails the unimodular check like any other non-unit one:
    |nan| - 1 compares False both ways, so the check is written as the
    comparison that holds for a unit phase."""
    with pytest.raises(DomainError):
        ops.SymmetryOperator(np.eye(4), phase=phase)
    with pytest.raises(DomainError):
        ops.parity_operator(phase)


class TestChargeConjugation:
    def test_squares_to_plus_one(self, rng):
        for theta in (0.0, 0.7, math.pi):
            c = ops.charge_conjugation(sp.PhaseConfig(theta_c=theta))
            for _ in range(5):
                v = rng.normal(size=4) + 1j * rng.normal(size=4)
                assert np.linalg.norm(c.apply(c.apply(v)) - v) <= 1e-13 * np.linalg.norm(v)

    def test_maps_particle_into_antiparticle_span(self, random_momenta):
        c = ops.charge_conjugation()
        for p in random_momenta(5):
            cu = c.apply(sp.dirac_spinor(p, "particle", "up").components)
            basis = np.column_stack([sp.dirac_spinor(p, "antiparticle", i).components
                                     for i in ("up", "down")])
            fit, *_ = np.linalg.lstsq(basis, cu, rcond=None)
            assert np.linalg.norm(cu - basis @ fit) <= 1e-12 * np.linalg.norm(cu)

    def test_fixes_self_conjugate_lambda(self, random_momenta):
        c = ops.charge_conjugation()
        for p in random_momenta(5):
            v = sp.lambda_spinor(p, "S", "up").components
            assert np.linalg.norm(c.apply(v) - v) <= 1e-12 * np.linalg.norm(v)

    def test_anticommutes_with_chirality(self, rng):
        c, g5 = ops.charge_conjugation(), ops.chirality()
        cg, gc = c.compose(g5), g5.compose(c)
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert np.linalg.norm(cg.apply(v) + gc.apply(v)) <= 1e-13 * np.linalg.norm(v)


class TestParityAndChirality:
    def test_parity_squares_to_identity_on_particles(self, random_momenta):
        pp = ops.parity_operator().compose(ops.parity_operator())
        for p in random_momenta(5):
            state = lambda q: sp.dirac_spinor(q, "particle", "up").components
            assert np.allclose(pp.apply_state(state, p), state(p))

    def test_chirality_blocks(self):
        g5 = ops.chirality()
        upper = np.array([1, 1, 0, 0], dtype=complex)
        lower = np.array([0, 0, 1, -1], dtype=complex)
        assert np.allclose(g5.apply(upper), upper)
        assert np.allclose(g5.apply(lower), -lower)

    def test_parity_negates_antiparticles(self, random_momenta):
        p_op = ops.parity_operator()
        for p in random_momenta(5):
            for index in ("up", "down"):
                state = lambda q, i=index: sp.dirac_spinor(q, "antiparticle", i).components
                assert np.allclose(p_op.apply_state(state, p), -state(p), atol=1e-12)


class TestHelicityOperators:
    def test_spectrum(self):
        p = make_momentum(0.3, -1.2, 0.4, 1.0)
        eigs = np.sort(np.linalg.eigvalsh(ops.helicity_operator(p).matrix))
        assert np.allclose(eigs, [-0.5, -0.5, 0.5, 0.5])

    def test_chiral_helicity_eigenrelation(self, random_momenta):
        for p in random_momenta(5):
            if p.p_abs == 0:
                continue
            eta = ops.chiral_helicity_operator(p)
            v = sp.lambda_spinor(p, "S", "up", "helicity").components
            assert np.linalg.norm(eta.apply(v) - 0.5 * v) <= 1e-12 * np.linalg.norm(v)

    def test_direction_required(self):
        p = make_momentum(0, 0, 0, 1.0)
        with pytest.raises(DirectionUndefinedError):
            ops.helicity_operator(p)
        with pytest.raises(DirectionUndefinedError):
            ops.chiral_helicity_operator(p)

    def test_helicity_parity_anticommutator(self, random_momenta):
        for p in random_momenta(5):
            if p.p_abs == 0:
                continue
            pr = parity_reflect(p)
            h_p = ops.helicity_operator(p).matrix
            h_pr = ops.helicity_operator(pr).matrix
            x = sp.lambda_spinor(pr, "S", "up", "helicity").components
            resid = h_p @ (gamma0 @ x) + gamma0 @ (h_pr @ x)
            assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(x)


class TestUnitaryChain:
    def test_z_axis_identity_case(self):
        p = make_momentum(0, 0, 1, 1.0)
        u = ops.u1(p)
        h = ops.helicity_operator(p).matrix
        target = 0.5 * block_diag2(sigma_z, sigma_z)
        assert np.allclose(u @ h @ np.linalg.inv(u), target)

    def test_diagonalisation_generic(self, random_momenta):
        target = 0.5 * block_diag2(sigma_z, sigma_z)
        g5_diag = np.diag([1.0, 1.0, -1.0, -1.0])
        for p in random_momenta(10):
            if p.p_abs == 0:
                continue
            u = ops.u1(p)
            conj = u @ ops.helicity_operator(p).matrix @ np.linalg.inv(u)
            assert np.linalg.norm(conj - target) <= 1e-12
            chained = ops.u3() @ (2 * conj) @ np.linalg.inv(ops.u3())
            assert np.linalg.norm(chained - g5_diag) <= 1e-12

    def test_chiral_helicity_chain(self, random_momenta):
        g5_diag = np.diag([1.0, 1.0, -1.0, -1.0])
        for p in random_momenta(10):
            if p.p_abs == 0:
                continue
            sn = pauli_dot(*p.direction())
            alpha_n = block_diag2(sn, -sn)
            u = ops.u1(p)
            conj = u @ alpha_n @ np.linalg.inv(u)
            assert np.linalg.norm(ops.u2() @ conj @ ops.u2().conj().T - g5_diag) <= 1e-12

    def test_determinants(self, random_momenta):
        for p in random_momenta(5):
            if p.p_abs == 0:
                continue
            assert np.linalg.det(ops.u1(p)) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(ops.u2()) == pytest.approx(-1.0)
        assert np.linalg.det(ops.u3()) == pytest.approx(-1.0)

    def test_unitarity(self, random_momenta):
        for p in random_momenta(5):
            if p.p_abs == 0:
                continue
            u = ops.u1(p)
            assert np.linalg.norm(u @ u.conj().T - np.eye(4)) <= 1e-12

    @pytest.mark.parametrize("mrad", [2.0, 3.0, 5.0, 1e-3, 1e-6, 1e-9])
    def test_unitary_near_negative_z(self, mrad):
        # |p| + pz cancels near -z unless formed as p_perp^2 / (|p| - pz)
        for phi in np.linspace(0.0, 2 * np.pi, 7, endpoint=False):
            for pabs, m in ((1.0, 1.0), (37.0, 4.2), (0.3, 0.1)):
                t = np.pi - mrad * 1e-3
                p = make_momentum(pabs * np.sin(t) * np.cos(phi), pabs * np.sin(t) * np.sin(phi),
                                  pabs * np.cos(t), m)
                u = ops.u1(p)
                assert np.linalg.norm(u @ u.conj().T - np.eye(4)) <= 1e-12
                assert abs(np.linalg.det(u) - 1.0) <= 1e-12

    def test_matches_a_40_digit_reference_up_to_the_negative_z_axis(self):
        """|p| from 1e-150 to 1e150 and pi - theta from 1 rad down to
        1e-170 rad, and the axis itself: where u1 returns, it is within
        1e-15 of the block computed to 40 digits from the same components;
        it raises only where p_perp^2, |p| + pz or cos^2(theta/2) is
        subnormal."""
        tiny = np.finfo(float).tiny
        raised = returned = 0
        for exponent, offset, phi in itertools.product(
                range(-150, 151, 25), [0.0] + [10.0 ** -k for k in range(0, 171, 5)], (0.4, 2.9)):
            pabs = 10.0 ** exponent
            p = make_momentum(pabs * math.sin(offset) * math.cos(phi),
                              pabs * math.sin(offset) * math.sin(phi), -pabs * math.cos(offset), 1.0)
            with mpmath.workdps(40):
                px, py, pz = (mpmath.mpf(x) for x in (p.px, p.py, p.pz))
                pperp2 = px * px + py * py
                exact_abs = mpmath.sqrt(pperp2 + pz * pz)
                denom = pperp2 / (exact_abs - pz)   # |p| + pz without the cancellation
                s = mpmath.sqrt(denom / (2 * exact_abs))
                r = s / denom if denom else mpmath.mpf(0)
                block = [[s, r * (px - 1j * py)], [-r * (px + 1j * py), s]]
                expected = np.array([[complex(v) for v in row] for row in block])
                smallest = float(min(pperp2, denom, denom / (2 * exact_abs)))
            try:
                u = ops.u1(p)
            except CoordinateSingularityError:
                assert smallest < 2 * tiny, (exponent, offset, phi)
                raised += 1
                continue
            returned += 1
            assert np.max(np.abs(u[:2, :2] - expected)) <= 1e-15, (exponent, offset, phi)
            assert np.array_equal(u[2:, 2:], u[:2, :2])
        assert returned > raised > 0

    def test_negative_z_axis_rejected(self):
        with pytest.raises(CoordinateSingularityError):
            ops.u1(make_momentum(0, 0, -2, 1.0))
        with pytest.raises(DirectionUndefinedError):
            ops.u1(make_momentum(0, 0, 0, 1.0))


# ---------------------------------------------------------------------------
# the numpy forms of u1, direction() and the helicity operators, frozen
# ---------------------------------------------------------------------------
#
# u1 and direction() now guard with kinematics._any, u1 picks |p| + pz
# with kinematics._where and is one array of its 16 entries, direction()
# divides each component by the cached |p|, and both helicity operators
# build sigma.n from the Python-float components of the direction; these
# are the np.any guards, the np.where pick, the vector division and the
# vector pauli_dot and broadcasting block_diag2 forms they replaced, kept
# with local copies of those two helpers as the reference for which
# momenta raise and for the bits of what returns.

def _frozen_pauli_dot(v):
    v = np.asarray(v)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return matrix2(z, x - 1j * y, x + 1j * y, -z)


def _frozen_block_diag2(a, b):
    n, k = a.shape[-1], b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (n + k, n + k),
                   dtype=complex)
    out[..., :n, :n] = a
    out[..., n:, n:] = b
    return out


def _frozen_direction(p):
    pabs = p.p_abs
    if np.any(pabs == 0.0):
        raise DirectionUndefinedError("momentum direction undefined at |p| = 0")
    return p.vec / np.asarray(pabs)[..., None]


def _frozen_u1(p):
    pabs = p.p_abs
    if np.any(pabs == 0.0):
        raise DirectionUndefinedError("u1 needs a momentum direction")
    far = pabs + abs(p.pz)
    denom = np.where(p.pz < 0, p.p_perp2 / far, far)
    cos2 = denom / (2.0 * pabs)
    if np.any((p.pz < 0) & (np.min([p.p_perp2, denom, cos2], axis=0) < np.finfo(float).tiny)):
        raise CoordinateSingularityError("momentum along -z")
    s = _sqrt(cos2)
    r = s / denom
    block = matrix2(s, r * p.p_l, -r * p.p_r, s)
    return _frozen_block_diag2(block, block)


def _frozen_helicity(p):
    sn = _frozen_pauli_dot(_frozen_direction(p))
    return 0.5 * _frozen_block_diag2(sn, sn)


def _frozen_chiral_helicity(p):
    sn = _frozen_pauli_dot(_frozen_direction(p))
    return -0.5 * _frozen_block_diag2(sn, -sn)


_FROZEN = {
    "u1": (_frozen_u1, ops.u1),
    "direction": (_frozen_direction, lambda p: p.direction()),
    "helicity": (_frozen_helicity, lambda p: ops.helicity_operator(p).matrix),
    "chiral-helicity": (_frozen_chiral_helicity,
                        lambda p: ops.chiral_helicity_operator(p).matrix),
}


def _guard_rows(edge_rows):
    """(px, py, pz, m): pi - theta from 1 rad down through the subnormal
    band to the axis, in half decades at three magnitudes and two
    azimuths, then the exact -z axis (both zero signs), rest, the domain's
    edge rows and rows of signed zeros, the smallest subnormal, 1e-160 and
    1.5, where a product that underflows shows how it was rounded and
    p_perp^2 is subnormal off the -z half-space."""
    rows = []
    for pabs, phi, k in itertools.product((1e-150, 3.0, 1e150), (0.4, 2.9), range(661)):
        offset = 10.0 ** (-k / 2)
        rows.append((pabs * math.sin(offset) * math.cos(phi),
                     pabs * math.sin(offset) * math.sin(phi), -pabs * math.cos(offset), 1.0))
    rows += [(0.0, 0.0, -2.0, 1.0), (-0.0, -0.0, -2.0, 1.0), (0.0, 0.0, 0.0, 1.0)]
    components = (0.0, -0.0, 5e-324, -5e-324, 1e-160, 1.5, -1.5)
    rows += [(*vec, 1.0) for vec in itertools.product(components, repeat=3)]
    return rows + list(edge_rows)


def _outcome(kernel, p):
    try:
        return kernel(p)
    except DomainError as exc:
        return type(exc)


@pytest.mark.parametrize("name", list(_FROZEN))
def test_guards_and_bits_match_the_frozen_numpy_forms(edge_rows, name):
    """Each row raises the same exception class as the frozen form, or
    returns its bits, zero signs included; a batch of all rows raises as
    the frozen form does, and the batch of the rows that return matches
    the frozen form on it bit for bit."""
    frozen, live = _FROZEN[name]
    rows = _guard_rows(edge_rows)
    returned = []
    for row in rows:
        p = make_momentum(*row)
        want, got = _outcome(frozen, p), _outcome(live, p)
        if isinstance(want, type):
            assert got is want, row
        else:
            assert_same_bits(got, want)
            returned.append(row)
    assert 0 < len(returned) < len(rows)
    everything = make_momenta(*np.array(rows).T)
    assert _outcome(live, everything) is _outcome(frozen, everything)
    moving = make_momenta(*np.array(returned).T)
    assert_same_bits(live(moving), frozen(moving))


_MOVING_ROW = (0.3, -1.2, 0.7, 1.1)
_REST_ROW, _MINUS_Z_ROW = (0.0, 0.0, 0.0, 1.0), (-0.0, 0.0, -2.0, 1.0)


@pytest.mark.parametrize("kernel, row, error", [
    (ops.u1, _REST_ROW, DirectionUndefinedError),
    (ops.u1, _MINUS_Z_ROW, CoordinateSingularityError),
    (ops.xi_matrix, _REST_ROW, DirectionUndefinedError),
    (ops.xi_matrix, _MINUS_Z_ROW, None),
    (_unit, _REST_ROW, DirectionUndefinedError),
    (_unit, _MINUS_Z_ROW, None),
], ids=["u1-rest", "u1-minus-z", "xi-rest", "xi-minus-z", "unit-rest", "unit-minus-z"])
def test_scalar_guards_raise_as_the_batch_guards(kernel, row, error):
    """The Python-bool guards of one momentum and the .any() guards of a
    batch raise the same error type, at rest and on the -z axis, whether
    the row is one momentum or the second row of a batch."""
    batch = make_momenta(*np.array([_MOVING_ROW, row]).T)
    for p in (make_momentum(*row), batch):
        if error is None:
            kernel(p)
        else:
            with pytest.raises(error):
                kernel(p)


def test_a_batch_with_no_rows_keeps_its_shapes():
    """Every one-momentum operator, the helicity frame, the coupled
    residual, the Frobenius row norm and the spin-1 zeta-scan run on a 0-row
    batch and return their shapes with a 0-length batch axis."""
    empty = make_momenta([], [], [], [])
    assert [a.shape for a in empty.half_angles] == [(0,)] * 3
    assert ops.xi_matrix(empty).shape == (0, 2, 2)
    assert ops.lambda_basis_transforms(empty).shape == (4, 0, 4, 4)
    assert ops.u1(empty).shape == (0, 4, 4)
    assert ops.helicity_operator(empty).matrix.shape == (0, 4, 4)
    residual = dyn.coupled_system_residual(empty, dyn.FrequencyConvention(+1))
    assert [r.shape for r in residual] == [(0,)] * 4
    assert rownorm(ops.u1(empty), matrix=True).shape == (0,)
    scan = s1.spin1_conjugacy_scan(empty, "g5sc")
    for minimum in (scan.self_minimum, scan.anti_minimum):
        assert minimum.zeta.shape == minimum.residual.shape == (0,)
    assert scan.floor_exceeded.dtype == bool and scan.floor_exceeded.shape == (0,)
    rows = np.zeros((0, 6), dtype=complex)
    assert [a.shape for a in s1.scan_pairs(rows, rows, s1.sc_one())] == [(2, 0)] * 2


def test_u1_on_a_batch_is_row_major():
    """u1 is built transposed and copied, so a batch's stack is C-ordered,
    as the chain checks' products read it."""
    assert ops.u1(sample_momenta(np.random.default_rng(7), 5)).flags.c_contiguous


class TestXiMatrix:
    def test_intertwines_both_boost_pairs(self, random_momenta):
        for p in random_momenta(10):
            if p.p_abs == 0:
                continue
            xi = ops.xi_matrix(p)
            for side in "RL":
                lam = boost_half(p, side)
                bound = 1e-12 * (np.linalg.norm(lam) + np.linalg.norm(np.conj(lam)))
                assert np.linalg.norm(xi @ lam - np.conj(lam) @ xi) <= bound

    def test_x_axis_is_real(self):
        xi = ops.xi_matrix(make_momentum(2.0, 0, 0, 1.0))
        assert np.linalg.norm(xi.imag) <= 1e-14

    def test_normalisation(self):
        xi = ops.xi_matrix(make_momentum(1.0, 2.0, 3.0, 2.0))
        assert np.linalg.norm(xi) == pytest.approx(1.0)

    def test_rest_rejected(self):
        with pytest.raises(DirectionUndefinedError):
            ops.xi_matrix(make_momentum(0, 0, 0, 1.0))

    @pytest.mark.parametrize("pz", [3.0, -2.0])
    @pytest.mark.parametrize("py", [0.0, -0.0])
    def test_signed_zero_z_axis_is_the_z_axis(self, py, pz):
        """px = -0.0 (a parity-reflected z-axis momentum) reads phi = 0 in
        Xi's twist as in the transforms' phase, not +-pi: Xi and the four
        transforms equal their (0, 0, pz) values bit for bit, one momentum
        and a batch row alike."""
        axis, signed = make_momentum(0.0, 0.0, pz, 1.0), make_momentum(-0.0, py, pz, 1.0)
        batch = make_momenta([-0.0, 0.0], [py, 0.0], [pz, pz], [1.0, 1.0])
        want = (ops.xi_matrix(axis), *ops.lambda_basis_transforms(axis))
        assert_same_bits((ops.xi_matrix(signed), *ops.lambda_basis_transforms(signed)), want)
        assert_rows_same_bits((ops.xi_matrix(batch), *ops.lambda_basis_transforms(batch)),
                              [want, want])

    @settings(max_examples=100, deadline=None)
    @given(log_m=st.floats(-6.0, 6.0), log_ratio=st.floats(-12.0, 12.0),
           log_angle=st.floats(-8.0, -2.0), azimuth=st.floats(0.0, 2.0 * math.pi),
           south=st.booleans())
    def test_intertwines_near_the_z_axis_over_the_whole_domain(self, log_m, log_ratio, log_angle,
                                                               azimuth, south):
        """m in [1e-6, 1e6], |p|/m up to 1e12, directions 1e-8 to 1e-2 rad
        from +z or -z: Xi is built without raising and intertwines both
        boosts within the tolerance that xi_matrix asserts."""
        m, angle = 10.0 ** log_m, 10.0 ** log_angle
        pabs = m * 10.0 ** log_ratio
        polar = math.pi - angle if south else angle
        p = make_momentum(pabs * math.sin(polar) * math.cos(azimuth),
                          pabs * math.sin(polar) * math.sin(azimuth), pabs * math.cos(polar), m)
        xi = ops.xi_matrix(p)
        for side in "RL":
            lam = boost_half(p, side)
            dense = np.linalg.norm(xi @ lam - np.conj(lam) @ xi)
            assert dense <= TOLERANCES["intertwiner"] * 2.0 * np.linalg.norm(lam)

    def test_boost_intertwiner_equation_has_two_dim_solution_space(self):
        # the commutant of sigma.n always contributes a second solution, so
        # the equation alone does not fix Xi and xi_matrix pins one element
        p = make_momentum(1.0, 2.0, 3.0, 2.0)
        lam = boost_half(p, "R")
        # vec(X lam - lam* X) = (lam^T (x) I - I (x) lam*) vec(X), column-major
        system = np.kron(lam.T, np.eye(2)) - np.kron(np.eye(2), np.conj(lam))
        _, svals, vh = np.linalg.svd(system)
        null = vh[svals < 1e-10 * max(1.0, svals[0])].conj()
        assert len(null) == 2
        for row in null:
            x = row.reshape((2, 2), order="F")
            assert np.linalg.norm(x @ lam - np.conj(lam) @ x) <= 1e-10
        xi = ops.xi_matrix(p).reshape(-1, order="F")
        assert np.linalg.norm(xi - null.T @ (null.conj() @ xi)) <= 1e-12


class TestLambdaBasisTransforms:
    def _targets(self, p, h):
        index = "up" if h > 0 else "down"
        ls = sp.lambda_spinor(p, "S", index, "helicity").components
        la = sp.lambda_spinor(p, "A", index, "helicity").components
        return ls, [np.conj(la), -1j * np.conj(ls), 1j * gamma0 @ np.conj(la),
                    gamma0 @ np.conj(ls)]

    def test_maps_and_coefficient_pattern(self, random_momenta):
        # the -i/+i factors live in the stated targets, so after phase pinning
        # every proportionality coefficient is exactly one
        for p in random_momenta(5):
            if p.p_abs == 0:
                continue
            transforms = ops.lambda_basis_transforms(p)
            for h in (1, -1):
                ls, targets = self._targets(p, h)
                for t, target in zip(transforms, targets):
                    img = t @ ls
                    c = np.vdot(target, img) / np.vdot(target, target)
                    assert np.linalg.norm(img - c * target) <= 1e-12 * np.linalg.norm(ls)
                    assert c == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("row", [
        (1.0, -1e-300, 0.3, 1.0),    # phi rounds to 2 pi and folds onto 0
        (1e-9, 1e-9, 1.0, 1.0),      # near +z
        (1e-9, -2e-9, -1.0, 1.0),    # near -z
        (3e-8, 1e-9, -1.0, 1.0),
        (0.0, 0.0, 1.0, 1.0),        # on +z
        # on the axes, signed zeros among them: a parity-reflected z-axis
        # momentum has px = -0.0
        (0.0, 0.0, 2.0, 0.7), (0.0, 0.0, -2.0, 0.7), (-0.0, -0.0, 3.0, 1.0),
        (2.0, 0.0, 0.0, 1.0), (-2.0, 0.0, 0.0, 1.0), (0.0, 2.0, 0.0, 1.0),
        (0.0, -2.0, 0.0, 1.0), (-1.0, -0.0, 0.5, 1.0), (-1.0, 1e-300, 0.0, 1.0),
    ])
    def test_first_coefficient_is_one(self, row):
        """Xi's phase is e^{i phi} in closed form: the four transforms map
        lambda_S up onto lambda_A up*, lambda_S up*, gamma0 lambda_A up* and
        gamma0 lambda_S up* with coefficients (c, -i c, i c, c), c = 1 to
        rounding (the targets carry the -i and i)."""
        p = make_momentum(*row)
        ls, targets = self._targets(p, 1)
        for t, target in zip(ops.lambda_basis_transforms(p), targets):
            img = t @ ls
            c = np.vdot(target, img) / np.vdot(target, target)
            assert abs(c - 1.0) <= 1e-15

    def test_first_coefficient_is_one_on_a_batch(self):
        batch = sample_momenta(np.random.default_rng(3), 1000)
        ls = sp.lambda_components(batch, "S", "up", "helicity")
        target = np.conj(sp.lambda_components(batch, "A", "up", "helicity"))
        img = matvec(ops.lambda_basis_transforms(batch)[0], ls)
        c = vdot(target, img) / vdot(target, target)
        assert np.max(np.abs(c - 1.0)) <= 1e-15

    def test_images_stay_self_conjugate(self, random_momenta):
        c_op = ops.charge_conjugation()
        for p in random_momenta(5):
            if p.p_abs == 0:
                continue
            for t in ops.lambda_basis_transforms(p):
                for index in ("up", "down"):
                    img = t @ sp.lambda_spinor(p, "S", index, "helicity").components
                    assert np.linalg.norm(c_op.apply(img) - img) <= 1e-12 * np.linalg.norm(img)

    def test_first_transform_conjugate_involution(self, random_momenta):
        for p in random_momenta(5):
            if p.p_abs == 0:
                continue
            t1 = ops.lambda_basis_transforms(p)[0]
            assert np.linalg.norm(t1 @ np.conj(t1) - np.eye(4)) <= 1e-12


class TestChiralGauge:
    def test_zero_angle_is_identity(self):
        assert np.allclose(ops.chiral_gauge_transform(0.0, "lambda"), np.eye(4))
        assert np.allclose(ops.chiral_gauge_transform(0.0, "rho"), np.eye(4))

    def test_unitary(self, rng):
        for alpha in rng.uniform(0, 2 * math.pi, 10):
            for family in ("lambda", "rho"):
                g = ops.chiral_gauge_transform(alpha, family)
                assert np.linalg.norm(g @ g.conj().T - np.eye(4)) <= 1e-13

    @pytest.mark.parametrize("family", ["lambda", "rho"])
    def test_array_angles_stack_the_float_ones(self, rng, family):
        alphas = rng.uniform(0, 2 * math.pi, (3, 4))
        stacked = ops.chiral_gauge_transform(alphas, family)
        assert stacked.shape == (3, 4, 4, 4)
        sign = -1.0 if family == "lambda" else 1.0
        for (i, j), alpha in np.ndenumerate(alphas):
            assert np.array_equal(stacked[i, j], ops.chiral_gauge_transform(float(alpha), family))
            closed = math.cos(alpha) * np.eye(4) + sign * 1j * math.sin(alpha) * gamma5
            assert np.allclose(stacked[i, j], closed, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha,family", [(math.inf, "lambda"),
                                              (np.array([0.1, math.nan]), "rho")],
                             ids=["inf", "nan-row"])
    def test_non_finite_angle_rejected(self, alpha, family):
        """An infinite angle gave an all-NaN matrix and a NaN angle a NaN
        row; both are rejected like the other angles' non-finite values."""
        with pytest.raises(DomainError, match="alpha must be finite"):
            ops.chiral_gauge_transform(alpha, family)

    def test_preserves_conjugacy(self, random_momenta, rng):
        c = ops.charge_conjugation()
        for p in random_momenta(5):
            alpha = float(rng.uniform(0, 2 * math.pi))
            gl = ops.chiral_gauge_transform(alpha, "lambda")
            v = gl @ sp.lambda_spinor(p, "S", "up").components
            assert np.linalg.norm(c.apply(v) - v) <= 1e-12 * np.linalg.norm(v)
            gr = ops.chiral_gauge_transform(alpha, "rho")
            w = gr @ sp.rho_spinor(p, "A", "down").components
            assert np.linalg.norm(c.apply(w) + w) <= 1e-12 * np.linalg.norm(w)


class TestSu2PhaseTransform:
    def test_identity_element(self):
        assert np.allclose(ops.su2_phase_transform(1.0, [0, 0, 0]), np.eye(2))

    def test_abelian_subgroup_composition(self):
        a, b = 0.7, 1.9
        za = ops.su2_phase_transform(math.cos(a), [0, 0, math.sin(a)])
        zb = ops.su2_phase_transform(math.cos(b), [0, 0, math.sin(b)])
        zab = ops.su2_phase_transform(math.cos(a + b), [0, 0, math.sin(a + b)])
        assert np.linalg.norm(za @ zb - zab) <= 1e-13

    def test_group_closure(self, rng):
        for _ in range(10):
            phi = rng.uniform(0, 2 * math.pi, 2)
            n = rng.normal(size=(2, 3))
            n /= np.linalg.norm(n, axis=-1, keepdims=True)
            c0, c = np.cos(phi), n * np.sin(phi)[:, None]
            mats = ops.su2_phase_transform(c0, c)
            # a batch is its rows' single calls
            assert np.array_equal(mats, [ops.su2_phase_transform(float(a), b)
                                         for a, b in zip(c0, c)])
            prod = mats[0] @ mats[1]
            assert np.linalg.norm(prod @ prod.conj().T - np.eye(2)) <= 1e-13
            assert abs(abs(np.linalg.det(prod)) - 1.0) <= 1e-13

    def test_unnormalised_parameters_rejected(self):
        with pytest.raises(DomainError):
            ops.su2_phase_transform(1.0, [0.5, 0, 0])
        # one row of a batch off the unit sphere
        with pytest.raises(DomainError):
            ops.su2_phase_transform([1.0, 0.6, 1.0], [[0, 0, 0], [0, 0.8, 0], [0.5, 0, 0]])
        with pytest.raises(DomainError):
            ops.su2_phase_transform(math.nan, [0, 0, 0])

    @pytest.mark.parametrize("k", [2, 4])
    def test_c_of_another_length_rejected(self, k):
        # c = (0, ..., 0, 1) with c0 = 0 passes the norm check at every length
        c = np.eye(k)[-1]
        with pytest.raises(DimensionError):
            ops.su2_phase_transform(0.0, c)
        with pytest.raises(DimensionError):
            ops.su2_phase_transform(np.zeros(3), np.tile(c, (3, 1)))


def _draw(seed, n):
    """The momenta the suite's cp checks probe at a run's seed and sample count."""
    return sample_momenta(np.random.default_rng(seed), n)


class TestCPClassification:
    def test_dirac_anticommutes(self):
        res = ops.classify_cp_action(_draw(3, 40), "spinorial", "dirac")
        assert res.relation == "anticommute"
        assert res.anticommute_residual <= 1e-12
        assert res.commute_residual > 0.1

    def test_elko_commutes(self):
        res = ops.classify_cp_action(_draw(3, 40), "helicity", "elko")
        assert res.relation == "commute"
        assert res.commute_residual <= 1e-12
        assert res.anticommute_residual > 0.1

    @pytest.mark.parametrize("family", ["dirac", "elko"])
    def test_a_batch_with_no_rows_rejected(self, family):
        """With no rows there is no residual to reduce: a ``DomainError``,
        not numpy's zero-size reduction error."""
        with pytest.raises(DomainError, match="at least one momentum"):
            ops.classify_cp_action(_draw(3, 0), "spinorial", family)

    @pytest.mark.parametrize("family", ["lambda", "rho", "u", "", None])
    def test_unknown_family_rejected(self, family):
        with pytest.raises(DomainError, match="family"):
            ops.classify_cp_action(_draw(3, 4), "helicity", family)

    @staticmethod
    def _state_by_state(q, basis, family, cfg):
        """The probe written one state at a time: each state's C P and P C
        images at the reflected momenta, over its own rows at q, then one
        reduction over every state's rows."""
        c_op, p_op = ops.charge_conjugation(cfg), ops.parity_operator(ops._INTRINSIC_PARITY[family])
        cp, pc = c_op.compose(p_op), p_op.compose(c_op)
        reflected = parity_reflect(q)
        components, kinds = ((sp.dirac_components, ("particle", "antiparticle"))
                             if family == "dirac" else (sp.lambda_components, ("S", "A")))
        rows = []
        for kind, index in itertools.product(kinds, sp.INDICES):
            x = components(reflected, kind, index, basis, cfg)
            a, b = cp.apply(x), pc.apply(x)
            scale = np.maximum(rownorm(components(q, kind, index, basis, cfg)), 1e-300)
            rows.append([rownorm(a - b) / scale, rownorm(a + b) / scale])
        commute, anticommute = np.max(rows, axis=(0, 2)).tolist()
        tol = TOLERANCES["identity"]
        relation = ("commute" if commute <= tol else
                    "anticommute" if anticommute <= tol else "neither")
        return relation, commute, anticommute

    @staticmethod
    def _assert_same_classification(res, relation, commute, anticommute):
        """The relation, and the bits and Python type of both residuals."""
        assert type(res.commute_residual) is type(res.anticommute_residual) is float
        assert_same_bits((res.relation, res.commute_residual, res.anticommute_residual),
                         (relation, commute, anticommute))

    @pytest.mark.parametrize("theta_c", [0.0, 1.1])
    @pytest.mark.parametrize("rows", [1, 7, 100])
    @pytest.mark.parametrize("basis", sp.BASES)
    @pytest.mark.parametrize("family", ["dirac", "elko"])
    def test_the_stacked_probe_is_the_state_by_state_one(self, family, basis, rows,
                                                         theta_c):
        """The family's four states probed as one stack give the relation
        and the bits and Python type of both residuals that the probe
        written one state at a time gives."""
        cfg, q = sp.PhaseConfig(theta_c=theta_c), _draw(3, rows)
        self._assert_same_classification(ops.classify_cp_action(q, basis, family, cfg),
                                         *self._state_by_state(q, basis, family, cfg))

    @pytest.mark.parametrize("basis", sp.BASES)
    @pytest.mark.parametrize("family", ["dirac", "elko"])
    def test_one_momentum_is_its_one_row_batch(self, family, basis, bit_rows):
        """A FourMomentum is probed as its one-row batch is: the same
        relation, and the same bits and Python type of both residuals."""
        for p in [*_draw(5, 20), *(make_momentum(*row) for row in bit_rows)]:
            res = ops.classify_cp_action(as_batch([p]), basis, family)
            self._assert_same_classification(ops.classify_cp_action(p, basis, family),
                                             res.relation, res.commute_residual,
                                             res.anticommute_residual)

    def test_a_nan_row_classifies_as_neither(self, nan_lambda_anti):
        """The residuals are one reduction over every state's rows, so a NaN
        row reads as NaN and classifies as neither; a fold by Python's
        ``max`` dropped it (``max(0.0, nan)`` is 0.0) and read commute."""
        with np.errstate(invalid="ignore", divide="ignore"):
            res = ops.classify_cp_action(_draw(3, 40), "helicity", "elko")
        assert res.relation == "neither"
        assert math.isnan(res.commute_residual)
        assert math.isnan(res.anticommute_residual)

    def test_classification_is_phase_independent(self):
        q = _draw(5, 10)
        for theta in (0.0, math.pi / 2, 2.1):
            cfg = sp.PhaseConfig(theta_c=theta)
            assert ops.classify_cp_action(q, "spinorial", "dirac", cfg).relation == "anticommute"
            assert ops.classify_cp_action(q, "helicity", "elko", cfg).relation == "commute"

    def test_elko_inversion_images(self, random_momenta, edge_rows, rng):
        """With the imaginary intrinsic phase the inversion image of the self
        kind is -+i times the anti kind at the same helicity, both read off
        the helicity factories.  The factory at Pp reads Pp's own azimuth,
        folded onto [0, 2 pi) and 0 on the exact z axis, where the image
        substitutes pi + phi; the two frames differ by a rotation about z
        through delta = phi(Pp) - (pi + phi), a multiple of pi.  Every
        multiple occurs: 0, -2 pi where pi + phi passes 2 pi, and -pi on
        the exact +-z axis, with every sign of its zero components."""
        momenta = [p for p in random_momenta(5) if p.p_abs > 0]
        momenta += [make_momentum(*row) for row in edge_rows if any(row[:3])]
        momenta += [make_momentum(x, y, z, 0.8)
                    for x, y, z in itertools.product((0.0, -0.0), (0.0, -0.0), (1e-3, -4.0))]
        for ratio in (1e-3, 1.0, 1e3, 1e6, 1e9, 1e12):   # |p|/m
            for direction in rng.normal(size=(4, 3)):
                momenta.append(make_momentum(*(ratio * 0.6 * direction
                                               / np.linalg.norm(direction)), 0.6))
        half_turns = set()
        for p in momenta:
            pr = parity_reflect(p)
            phi, phi_r = p.half_angles[2], pr.half_angles[2]
            k = round((phi_r - math.pi - phi) / math.pi)
            assert abs(phi_r - math.pi - phi - k * math.pi) <= 1e-14
            assert (k == -1) == (p.px == 0.0 and p.py == 0.0), p   # the half turn: the z axis
            half_turns.add(k)
            e = cmath.exp(0.5j * k * math.pi)
            rotation = np.array([e, e.conjugate(), e, e.conjugate()])
            for index, coeff in (("up", -1j), ("down", 1j)):
                img = 1j * gamma0 @ (rotation * sp.lambda_spinor(pr, "S", index,
                                                                 "helicity").components)
                tgt = coeff * sp.lambda_spinor(p, "A", index, "helicity").components
                assert np.linalg.norm(img - tgt) <= 1e-12 * np.linalg.norm(img), (p, index)
        assert half_turns == {0, -1, -2}


class TestComposition:
    def test_antilinear_flag_xor(self):
        c = ops.charge_conjugation()
        assert not c.compose(c).antilinear
        assert c.compose(ops.chirality()).antilinear

    def test_reflection_flag_xor(self):
        p_op = ops.parity_operator()
        assert not p_op.compose(p_op).reflects_momentum
        assert p_op.compose(ops.chirality()).reflects_momentum

    def test_associativity_on_states(self, rng, random_momenta):
        pool = [ops.charge_conjugation(), ops.parity_operator(), ops.chirality(),
                ops.SymmetryOperator(ops.chiral_gauge_transform(0.3, "rho")),
                ops.charge_conjugation(sp.PhaseConfig(theta_c=0.9))]
        momenta = random_momenta(3)
        for _ in range(10):
            a, b, c = (pool[k] for k in rng.integers(0, len(pool), 3))
            left = a.compose(b).compose(c)
            right = a.compose(b.compose(c))
            assert np.allclose(left.matrix, right.matrix)
            assert left.phase == pytest.approx(right.phase)
            assert left.antilinear == right.antilinear
            assert left.reflects_momentum == right.reflects_momentum
            state = lambda q: sp.lambda_spinor(q, "A", "down").components
            for p in momenta:
                assert np.allclose(left.apply_state(state, p),
                                   right.apply_state(state, p))

    def test_nonunimodular_phase_rejected(self):
        with pytest.raises(DomainError):
            ops.SymmetryOperator(np.eye(4), phase=2.0)
