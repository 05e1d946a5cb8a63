import math

import numpy as np
import pytest

from elko import TOLERANCES
from elko import dynamics as dyn
from elko import spinors as sp
from elko.errors import DomainError
from elko.kinematics import as_batch, make_momentum, sample_momenta
from elko.matrices import block_diag2, gamma0, gamma5, matvec, pauli_dot, rownorm
from elko.operators import chiral_gauge_transform, su2_phase_transform

from bits import assert_rows_same_bits, assert_same_bits


class TestDiracMatrix:
    def test_clifford_square(self, random_momenta):
        for p in random_momenta(10):
            gp = dyn.dirac_matrix(p)
            assert np.linalg.norm(gp @ gp - p.m ** 2 * np.eye(4)) <= 1e-12 * p.m ** 2

    def test_rest_frame(self):
        p = make_momentum(0, 0, 0, 1.5)
        assert np.allclose(dyn.dirac_matrix(p), 1.5 * gamma0)

    def test_annihilates_particle_spinor(self, random_momenta):
        for p in random_momenta(5):
            u = sp.dirac_spinor(p, "particle", "down").components
            assert np.linalg.norm((dyn.dirac_matrix(p) - p.m * np.eye(4)) @ u) \
                <= 1e-12 * np.linalg.norm(u)


class TestCoupledSystem:
    def test_rest_frame_correct_convention(self):
        p = make_momentum(0, 0, 0, 1.0)
        assert max(dyn.coupled_system_residual(p, dyn.FrequencyConvention(1))) <= 1e-12

    def test_wrong_convention_leaves_mass_scale_residual(self, random_momenta):
        # over m max|psi|, since the residual has mass dimension 3/2: over m
        # alone it is 2 sqrt(m) at rest, below 0.5 for the light rest momenta
        wrong = dyn.FrequencyConvention(-1)
        light = [make_momentum(0, 0, 0, m) for m in (1e-4, 1e-2)]
        for p in random_momenta(20) + light:
            scale = p.m * dyn.physical_state_scale(dyn.physical_states(p))
            assert max(dyn.coupled_system_residual(p, wrong)) > TOLERANCES["floor_mass"] * scale

    def test_random_momenta_all_four_equations(self, random_momenta):
        conv = dyn.FrequencyConvention(1)
        for p in random_momenta(20):
            assert max(dyn.coupled_system_residual(p, conv)) <= 1e-12

    def test_discovery_unique_and_positive(self, random_momenta):
        conv = dyn.discover_convention(random_momenta(8))
        assert conv.sign == 1

    @pytest.mark.parametrize("m", [1e-6, 1.0, 1e6])
    def test_discovery_across_masses_and_boosts(self, m):
        """Each row is judged relative to E |psi|: the right convention
        stays at rounding level, the wrong one at about 2m/|p| >= 2e-12."""
        tilt = 1e-8
        directions = [(0.3, -0.4, 0.5), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
                      (math.sin(tilt), 0.0, -math.cos(tilt)), (math.sin(tilt), 0.0, math.cos(tilt))]
        momenta = [make_momentum(*(ratio * m * np.array(d) / np.linalg.norm(d)), m)
                   for ratio in (0.0, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12) for d in directions]
        for p in momenta:
            assert dyn.discover_convention([p]).sign == 1
        assert dyn.discover_convention(momenta).sign == 1

    def test_discovery_outside_the_sampled_box(self):
        assert dyn.discover_convention([make_momentum(300, -400, 500, 100)]).sign == 1

    def test_ultra_relativistic_limit_raises(self):
        # |p|/m = 1e14: the wrong convention's 2m/|p| is below the tolerance
        with pytest.raises(DomainError, match="ultra-relativistic"):
            dyn.discover_convention([make_momentum(0.6e14, 0.0, -0.8e14, 1.0)])

    def test_invalid_sign_rejected(self):
        with pytest.raises(DomainError):
            dyn.FrequencyConvention(0)


class TestMarkov:
    def test_pure_particle_degenerates_to_single_equation(self, random_momenta):
        p = random_momenta(1)[0]
        pair = dyn.markov_superposition(p, (1.0, 0.0), (0.0, 0.0))
        psi1 = sp.dirac_spinor(p, "particle", "up").components
        assert np.allclose(pair.chi, psi1 / math.sqrt(2))
        assert np.allclose(pair.eta, psi1 / math.sqrt(2))
        gp = dyn.dirac_matrix(p)
        assert np.linalg.norm(gp @ pair.chi - p.m * pair.eta) <= 1e-12

    def test_cross_coupled_equations(self, random_momenta, rng):
        momenta, weights, pairs = random_momenta(10), [], []
        for p in momenta:
            w = rng.normal(size=4) + 1j * rng.normal(size=4)
            pair = dyn.markov_superposition(p, (w[0], w[1]), (w[2], w[3]))
            gp = dyn.dirac_matrix(p)
            scale = max(np.linalg.norm(pair.chi), np.linalg.norm(pair.eta))
            assert np.linalg.norm(gp @ pair.chi - p.m * pair.eta) <= 1e-12 * max(scale, 1)
            assert np.linalg.norm(gp @ pair.eta - p.m * pair.chi) <= 1e-12 * max(scale, 1)
            weights.append(w)
            pairs.append(pair)
        # a batch with (N,) weights is its rows' single calls
        w = np.array(weights).T
        batched = dyn.markov_superposition(as_batch(momenta), w[:2], w[2:])
        assert_rows_same_bits(batched, pairs)

    def test_solutions_lie_in_uv_span(self, random_momenta, rng):
        p = random_momenta(1)[0]
        w = rng.normal(size=4)
        pair = dyn.markov_superposition(p, (w[0], w[1]), (w[2], w[3]))
        basis = np.column_stack([sp.dirac_spinor(p, s, i).components
                                 for s in ("particle", "antiparticle")
                                 for i in ("up", "down")])
        for vec in pair:
            fit, *_ = np.linalg.lstsq(basis, vec, rcond=None)
            assert np.linalg.norm(vec - basis @ fit) <= 1e-12 * np.linalg.norm(vec)

    def test_isometry(self, random_momenta, rng):
        p = random_momenta(1)[0]
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi1 = (w[0] * sp.dirac_spinor(p, "particle", "up").components
                + w[1] * sp.dirac_spinor(p, "particle", "down").components)
        psi2 = (w[2] * sp.dirac_spinor(p, "antiparticle", "up").components
                + w[3] * sp.dirac_spinor(p, "antiparticle", "down").components)
        pair = dyn.markov_superposition(p, (w[0], w[1]), (w[2], w[3]))
        before = np.linalg.norm(psi1) ** 2 + np.linalg.norm(psi2) ** 2
        after = np.linalg.norm(pair.chi) ** 2 + np.linalg.norm(pair.eta) ** 2
        assert after == pytest.approx(before, rel=1e-12)

    @pytest.mark.parametrize("weights", [((math.nan, 0.0), (1.0, 0.0)),
                                         ((1.0, 0.0), (0.0, math.inf))])
    def test_non_finite_weight_rejected(self, weights):
        p = make_momentum(0.3, -0.4, 1.2, 1.0)
        with pytest.raises(DomainError, match="weights must be finite"):
            dyn.markov_superposition(p, *weights)


class TestSenGupta:
    def test_reduces_to_dirac_at_zero_pseudoscalar_mass(self, random_momenta):
        momenta = random_momenta(5)
        for p in momenta:
            u = sp.dirac_spinor(p, "particle", "up")
            assert dyn.sen_gupta_residual(p, p.m, 0.0, u) <= 1e-12 * np.linalg.norm(u.components)
        # a batch with (N,) masses is its rows' single calls
        batch = as_batch(momenta)
        u = sp.dirac_components(batch, "particle", "up")
        assert np.array_equal(dyn.sen_gupta_residual(batch, batch.m, 0.0, u),
                              [dyn.sen_gupta_residual(p, p.m, 0.0, x) for p, x in zip(momenta, u)])

    def test_null_dimension_on_generalised_shell(self):
        m1, m2 = 2.0, 1.0
        vec = (0.4, -0.3, 0.9)
        e = math.sqrt(m1 ** 2 - m2 ** 2 + sum(x * x for x in vec))
        null = dyn.sen_gupta_null_space(e, *vec, m1, m2)
        assert len(null) == 2
        op = dyn.sen_gupta_operator(e, *vec, m1, m2)
        for v in null:
            assert np.linalg.norm(op @ v) <= 1e-10

    def test_off_shell_reports_empty_null_space(self):
        null = dyn.sen_gupta_null_space(5.0, 0.4, -0.3, 0.9, 2.0, 1.0)
        assert null == []

    def test_equivalence_transform_to_dirac(self):
        m1, m2 = 2.0, 1.0
        mu = math.sqrt(m1 ** 2 - m2 ** 2)
        vec = (1.0, 0.5, -0.2)
        e = math.sqrt(mu ** 2 + sum(x * x for x in vec))
        emat = dyn.sen_gupta_equivalence(m1, m2)
        dirac = dyn.slash(e, *vec) - mu * np.eye(4)
        for v in dyn.sen_gupta_null_space(e, *vec, m1, m2):
            mapped = np.linalg.inv(emat) @ v
            assert np.linalg.norm(dirac @ mapped) <= 1e-12 * np.linalg.norm(mapped)
        # (N,) masses give one transform per row
        batch = dyn.sen_gupta_equivalence(np.array([m1, 3.0]), np.array([m2, -0.5]))
        assert np.array_equal(batch, [emat, dyn.sen_gupta_equivalence(3.0, -0.5)])

    def test_massless_limit_not_chiral_helicity_eigen(self):
        m2 = 1.0
        vec = np.array([0.3, 0.1, 2.2])
        e = math.sqrt(float(vec @ vec) - m2 ** 2)
        null = dyn.sen_gupta_null_space(e, *vec, 0.0, m2)
        assert len(null) >= 1
        n = vec / np.linalg.norm(vec)
        sn = pauli_dot(*n)
        doubled = block_diag2(sn, -sn)
        for v in null:
            v = v / np.linalg.norm(v)
            image = doubled @ v
            fit = np.vdot(v, image)
            assert np.linalg.norm(image - fit * v) > 0.1

    @staticmethod
    def _rows(rng, n, shell):
        """n rows (e, px, py, pz, m1, m2): on the generalised shell, off it
        (no null space) or on it with m1 = 0."""
        vec = rng.normal(size=(n, 3))
        m1 = np.zeros(n) if shell == "massless" else rng.uniform(0.5, 3.0, n)
        m2 = rng.uniform(0.3, 0.9, n) * (1.0 if shell == "massless" else m1)
        if shell == "massless":   # p^2 = -m2^2 needs |p| > m2
            vec *= (2.0 * m2 / np.sqrt(np.sum(vec * vec, axis=1)))[:, None]
        e = np.sqrt(np.abs(m1 ** 2 - m2 ** 2 + np.sum(vec * vec, axis=1)))
        if shell == "off":
            e *= rng.uniform(1.1, 2.0, n)
        return e, *vec.T, m1, m2

    def test_null_space_batch_rows_are_the_single_calls(self):
        """One basis list per row, bit for bit the list of the row's own
        call: on-shell rows (two vectors), off-shell rows (none), rows with
        m1 = 0, and scalar masses broadcast against (N,) e as the off-shell
        check passes them."""
        rng = np.random.default_rng(20)
        rows = [self._rows(rng, 7, shell) for shell in ("on", "off", "massless")]
        mixed = tuple(np.concatenate(parts) for parts in zip(*rows))
        for args in rows + [mixed]:
            batch = dyn.sen_gupta_null_space(*args)
            single = [dyn.sen_gupta_null_space(*row) for row in zip(*args)]
            assert_same_bits(batch, single)
        dims = [len(null) for null in dyn.sen_gupta_null_space(*mixed)]
        assert dims == [2] * 7 + [0] * 7 + [2] * 7
        px, py, pz = rng.normal(size=(3, 10))
        shell = np.sqrt(3.0 + px * px + py * py + pz * pz)   # m1^2 - m2^2 = 3
        e = np.where(np.arange(10) < 3, shell, shell * rng.uniform(0.5, 2.0, 10))
        batch = dyn.sen_gupta_null_space(e, px, py, pz, 2.0, 1.0)
        assert_same_bits(batch, [dyn.sen_gupta_null_space(*row, 2.0, 1.0)
                                 for row in zip(e, px, py, pz)])
        assert [len(null) for null in batch[:3]] == [2, 2, 2]
        # one momentum still gives a list of (4,) rows
        single = dyn.sen_gupta_null_space(*(x[0] for x in rows[0]))
        assert isinstance(single, list) and [v.shape for v in single] == [(4,), (4,)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        row = [2.0, 0.1, 0.2, 0.3, 1.0, 0.5]
        for k, name in enumerate(("e", "px", "py", "pz", "m1", "m2")):
            args = row[:k] + [bad] + row[k + 1:]
            # the message names the bad argument
            with pytest.raises(DomainError, match=f"^{name} must be finite"):
                dyn.sen_gupta_null_space(*args)
            with pytest.raises(DomainError, match=f"^{name} must be finite"):
                dyn.sen_gupta_operator(*args)
            # a batch with one bad row
            batch = [np.array([x, x, x]) for x in row]
            batch[k][1] = bad
            with pytest.raises(DomainError, match=f"^{name} must be finite"):
                dyn.sen_gupta_null_space(*batch)

    def test_degenerate_masses_rejected_by_equivalence(self):
        with pytest.raises(DomainError):
            dyn.sen_gupta_equivalence(1.0, 1.0)

    def test_non_finite_mass_rejected_by_equivalence(self):
        # |1| < |inf| passed the mass check and gave the identity
        with pytest.raises(DomainError, match="m1 must be finite"):
            dyn.sen_gupta_equivalence(math.inf, 1.0)

    def test_degenerate_masses_null_structure_reported(self):
        # m1 = +-m2 puts solutions on the light cone; the structure is
        # recorded here without asserting a particular dimension
        m = 0.8
        vec = (0.3, -0.4, 1.2)
        e = math.sqrt(sum(x * x for x in vec))
        for m2 in (m, -m):
            null = dyn.sen_gupta_null_space(e, *vec, m, m2)
            op = dyn.sen_gupta_operator(e, *vec, m, m2)
            for v in null:
                assert np.linalg.norm(op @ v) <= 1e-9


class TestEightComponent:
    def test_rest_frame_residual(self):
        p = make_momentum(0, 0, 0, 1.0)
        assert dyn.eight_component_residual(p, dyn.FrequencyConvention(1)) <= 1e-12

    def test_random_momenta_residual(self, random_momenta):
        conv = dyn.FrequencyConvention(1)
        for p in random_momenta(10):
            assert dyn.eight_component_residual(p, conv) <= 1e-12

    def test_axial_matrix_squares_to_identity(self):
        # diag(g5, -g5)^2 = diag(g5^2, g5^2)
        assert np.array_equal(gamma5 @ gamma5, np.eye(4))

    def test_axial_matrix_commutes_with_kinetic_block(self, random_momenta):
        z = np.zeros((4, 4))
        l5 = np.block([[gamma5, z], [z, -gamma5]])
        for p in random_momenta(5):
            gp = dyn.dirac_matrix(p)
            kin = np.block([[z, gp], [gp, z]])
            assert np.linalg.norm(l5 @ kin - kin @ l5) <= 1e-12 * max(1.0, p.E)

    def test_gauge_transform_maps_solutions_to_solutions(self, random_momenta):
        # G_lambda on the lambda block and G_rho on the rho block of each stack
        conv = dyn.FrequencyConvention(1)
        for p in random_momenta(5):
            gauges = np.array([chiral_gauge_transform(0.7, f) for f in ("lambda", "rho")] * 2)
            for states in dyn.physical_states(p):   # index up, then down
                moved = matvec(gauges, states)
                assert np.linalg.norm(dyn.coupled_equations(p, conv, moved)) <= 1e-12

    def test_rows_are_the_eight_by_eight_operator_on_the_stacks(self, random_momenta):
        # sector operator s (sign [[0, gamma.p], [gamma.p, 0]] - m) on (lambda, rho),
        # s = +1 on the stack (lambda^S, rho^A) and -1 on (lambda^A, rho^S)
        z = np.zeros((4, 4))
        for sign in (1, -1):
            conv = dyn.FrequencyConvention(sign)
            for p in random_momenta(5):
                gp = dyn.dirac_matrix(p)
                for states in dyn.physical_states(p):   # index up, then down
                    ls, ra, la, rs = states
                    eqs = dyn.coupled_equations(p, conv, states)
                    for rows, stack, sector in ((eqs[:2], (ls, ra), 1.0),
                                                (eqs[2:], (la, rs), -1.0)):
                        op = sector * (sign * np.block([[z, gp], [gp, z]]) - p.m * np.eye(8))
                        direct = op @ np.concatenate(stack)
                        assert np.allclose(np.concatenate(rows[::-1]), direct,
                                           rtol=0, atol=1e-14 * p.E * p.E)

    def test_residual_is_the_stacked_pair_norm_of_the_coupled_rows(self, rng):
        # rows 0-1 and 2-3 of the coupled equations are the eight-component
        # equation of the stacks (lambda^S, rho^A) and (lambda^A, rho^S)
        batch = sample_momenta(rng, 1000)
        for sign in (1, -1):
            conv = dyn.FrequencyConvention(sign)
            pair_norms = []
            for states in dyn.physical_states(batch):
                eqs = dyn.coupled_equations(batch, conv, states)
                pair_norms += [rownorm(np.concatenate([eqs[:, k], eqs[:, k + 1]], axis=-1))
                               for k in (0, 2)]
            expected = np.max(pair_norms, axis=0)
            assert np.array_equal(dyn.eight_component_residual(batch, conv), expected)


class TestMassTerm:
    def test_physical_quartet_value_vanishes(self, random_momenta):
        for p in random_momenta(5):
            val = dyn.lagrangian_mass_term(
                sp.lambda_spinor(p, "S", "up"), sp.rho_spinor(p, "A", "up"),
                sp.lambda_spinor(p, "A", "up"), sp.rho_spinor(p, "S", "up"), p.m)
            assert abs(val) <= 1e-12 * p.m ** 2

    def test_real_for_arbitrary_fields(self, rng):
        fields = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(4)]
        val = dyn.lagrangian_mass_term(*fields, 1.3)
        assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))

    def test_chiral_invariance_random_fields(self, rng):
        for _ in range(10):
            alpha = float(rng.uniform(0, 2 * math.pi))
            gl = chiral_gauge_transform(alpha, "lambda")
            gr = chiral_gauge_transform(alpha, "rho")
            f = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(4)]
            before = dyn.lagrangian_mass_term(*f, 2.0)
            after = dyn.lagrangian_mass_term(gl @ f[0], gr @ f[1], gl @ f[2], gr @ f[3], 2.0)
            assert after == pytest.approx(before, abs=1e-12 * max(1, abs(before)))

    def test_su2_doublet_invariance(self, rng):
        us, ds, rotated = [], [], []
        for _ in range(10):
            phi = float(rng.uniform(0, 2 * math.pi))
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            u = su2_phase_transform(math.cos(phi), n * math.sin(phi))
            d = tuple(rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
            r = tuple(rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(2))
            before = dyn.doublet_mass_term(d, r, 1.0)
            after = dyn.doublet_mass_term(dyn.rotate_doublet(u, d),
                                          dyn.rotate_doublet(u, r), 1.0)
            assert after == pytest.approx(before, abs=1e-12 * max(1, abs(before)))
            us.append(u)
            ds.append(d)
            rotated.append(dyn.rotate_doublet(u, d))
        # an (N, 2, 2) stack rotates (N, 4) doublets row by row
        batched = dyn.rotate_doublet(np.array(us), tuple(np.array(ds).transpose(1, 0, 2)))
        assert np.array_equal(np.array(batched), np.array(rotated).transpose(1, 0, 2))

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected_by_lagrangian_term(self, m):
        v = np.ones(4, dtype=complex)
        with pytest.raises(DomainError, match="m must be finite"):
            dyn.lagrangian_mass_term(v, v, v, v, m)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected_by_doublet_term(self, m):
        v = np.ones(4, dtype=complex)
        with pytest.raises(DomainError, match="m must be finite"):
            dyn.doublet_mass_term((v, v), (v, v), m)

    def test_doublet_form_matches_lagrangian_pairing(self, random_momenta):
        p = random_momenta(1)[0]
        ls = sp.lambda_spinor(p, "S", "up")
        ra = sp.rho_spinor(p, "A", "up")
        la = sp.lambda_spinor(p, "A", "up")
        rs = sp.rho_spinor(p, "S", "up")
        direct = dyn.lagrangian_mass_term(ls, ra, la, rs, p.m)
        via_doublets = dyn.doublet_mass_term(
            (ls.components, la.components), (ra.components, -rs.components), p.m)
        assert via_doublets == pytest.approx(direct, abs=1e-12)
