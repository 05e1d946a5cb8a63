import cmath
import dataclasses
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elko import dynamics as dyn
from elko import kinematics as kin
from elko import operators as ops
from elko import spin_one as s1
from elko import spinors as sp
from elko.config import TOLERANCES
from elko.errors import DomainError
from elko.kinematics import (boost_half_pair, make_momenta, make_momentum, parity_reflect,
                             sample_momenta)
from elko.matrices import gamma0, theta_half
from elko.operators import charge_conjugation, chiral_helicity_operator, helicity_operator

import golden

DATA = pathlib.Path(__file__).parent / "data"


class TestRestSpinors:
    def test_lambda_self_up(self):
        assert np.allclose(sp.rest_lambda("S", "up", 2.0).components, [0, 1j, 1, 0])

    def test_lambda_anti_down(self):
        assert np.allclose(sp.rest_lambda("A", "down", 2.0).components, [1j, 0, 0, 1])

    def test_lambda_self_down_scaled(self):
        assert np.allclose(sp.rest_lambda("S", "down", 8.0).components,
                           2.0 * np.array([-1j, 0, 0, 1]))

    def test_rho_self_up_composition(self):
        # rho^S_up = -i lambda^A_down
        expected = -1j * sp.rest_lambda("A", "down", 2.0).components
        assert np.allclose(sp.rest_rho("S", "up", 2.0).components, expected)
        assert np.allclose(expected, [1, 0, 0, -1j])

    def test_rho_anti_up_composition(self):
        expected = 1j * sp.rest_lambda("S", "down", 2.0).components
        assert np.allclose(sp.rest_rho("A", "up", 2.0).components, expected)
        assert np.allclose(expected, [1, 0, 0, 1j])

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(DomainError):
            sp.rest_lambda("S", "up", 0.0)
        with pytest.raises(DomainError):
            sp.rest_rho("A", "down", -1.0)


class TestBoostedClosedForms:
    def test_lambda_reduces_to_rest(self):
        p = make_momentum(0, 0, 0, 2.0)
        assert np.allclose(sp.lambda_spinor(p, "S", "up").components,
                           sp.rest_lambda("S", "up", 2.0).components)

    def test_lambda_self_down_on_z_axis(self):
        p = make_momentum(0, 0, 1, 1.0)
        e = math.sqrt(2.0)
        expected = np.array([-1j * (e + 2), 0, 0, e + 2]) / (2 * math.sqrt(e + 1))
        assert np.allclose(sp.lambda_spinor(p, "S", "down").components, expected)

    def test_rho_anti_down_leading_component(self):
        p = make_momentum(1, 0, 0, 1.0)
        comps = sp.rho_spinor(p, "A", "down").components
        assert comps[0] * (2 * math.sqrt(p.E + p.m)) == pytest.approx(p.p_l)

    def test_rho_lambda_identities_at_finite_momentum(self, random_momenta):
        for p in random_momenta(10):
            assert np.allclose(sp.rho_spinor(p, "S", "up").components,
                               -1j * sp.lambda_spinor(p, "A", "down").components)
            assert np.allclose(sp.rho_spinor(p, "A", "down").components,
                               -1j * sp.lambda_spinor(p, "S", "up").components)

    def test_boost_consistency_exact(self, random_momenta):
        for p in random_momenta(15):
            b = boost_half_pair(p)
            for kind in "SA":
                for index in ("up", "down"):
                    assert np.allclose(b @ sp.rest_lambda(kind, index, p.m).components,
                                       sp.lambda_spinor(p, kind, index).components,
                                       atol=1e-12)
                    assert np.allclose(b @ sp.rest_rho(kind, index, p.m).components,
                                       sp.rho_spinor(p, kind, index).components,
                                       atol=1e-12)

    def test_rest_limit(self):
        m = 1.0
        p = make_momentum(1e-8 * m / 2, 0, 1e-8 * m / 2, m)
        for kind in "SA":
            for index in ("up", "down"):
                assert np.linalg.norm(
                    sp.lambda_spinor(p, kind, index).components
                    - sp.rest_lambda(kind, index, m).components) <= 1e-7
                assert np.linalg.norm(
                    sp.rho_spinor(p, kind, index).components
                    - sp.rest_rho(kind, index, m).components) <= 1e-7


class TestConjugacy:
    @pytest.mark.parametrize("basis", ["spinorial", "helicity"])
    def test_all_families(self, random_momenta, basis):
        c_op = charge_conjugation()
        for p in random_momenta(10):
            for index in ("up", "down"):
                for fn, sign_of in ((sp.lambda_spinor, {"S": 1, "A": -1}),
                                    (sp.rho_spinor, {"S": 1, "A": -1})):
                    for kind, sign in sign_of.items():
                        v = fn(p, kind, index, basis).components
                        assert np.linalg.norm(c_op.apply(v) - sign * v) <= 1e-12 * np.linalg.norm(v)

    def test_conjugation_phase_rotates_eigenvalue(self, random_momenta):
        theta = 1.234
        c_op = charge_conjugation(sp.PhaseConfig(theta_c=theta))
        p = random_momenta(1)[0]
        v = sp.lambda_spinor(p, "S", "up").components
        assert np.linalg.norm(c_op.apply(v) - cmath.exp(1j * theta) * v) <= 1e-12


class TestHelicityTwoSpinors:
    def test_z_axis_plus(self):
        assert np.allclose(sp.helicity_components(0.0, 0.0, 1), [1, 0])

    def test_unit_norm_and_eigenrelation(self, rng):
        for _ in range(25):
            th = rng.uniform(0, math.pi)
            ph = rng.uniform(0, 2 * math.pi)
            cfg = sp.PhaseConfig(theta1=rng.uniform(0, 6), theta2=rng.uniform(0, 6))
            n = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph),
                          math.cos(th)])
            from elko.matrices import pauli_dot

            for h in (1, -1):
                f = sp.helicity_components(th, ph, h, cfg.theta1, cfg.theta2)
                assert abs(np.linalg.norm(f) - 1) <= 1e-14
                assert np.linalg.norm(pauli_dot(n) @ f - h * f) <= 1e-13

    @pytest.mark.parametrize("h", [2, 0])
    def test_invalid_helicity_rejected(self, h):
        with pytest.raises(DomainError):
            sp.helicity_components(0.3, 0.2, h)

    def test_reflection_relations(self, rng):
        for _ in range(50):
            th = rng.uniform(0, math.pi)
            ph = rng.uniform(0, 2 * math.pi)
            t1, t2 = rng.uniform(0, 2 * math.pi, 2)
            fp = sp.helicity_components(th, ph, 1, t1, t2)
            fm = sp.helicity_components(th, ph, -1, t1, t2)
            rfp = sp.helicity_components(math.pi - th, math.pi + ph, 1, t1, t2)
            rfm = sp.helicity_components(math.pi - th, math.pi + ph, -1, t1, t2)
            assert np.linalg.norm(rfm + 1j * cmath.exp(1j * (t2 - t1)) * fp) <= 1e-13
            assert np.linalg.norm(rfp + 1j * cmath.exp(1j * (t1 - t2)) * fm) <= 1e-13
            assert np.linalg.norm(
                theta_half @ np.conj(rfm) + 1j * cmath.exp(-2j * t2) * fm) <= 1e-13
            assert np.linalg.norm(
                theta_half @ np.conj(rfp) - 1j * cmath.exp(-2j * t1) * fp) <= 1e-13

    def test_index_flip_unitary(self, rng):
        for _ in range(20):
            th = rng.uniform(0, math.pi)
            ph = rng.uniform(0, 2 * math.pi)
            al, be = rng.uniform(0, 2 * math.pi, 2)
            up = sp.helicity_components(th, ph, 1, theta1=al)
            down = sp.helicity_components(th, ph, -1, theta2=be)
            u = sp.index_flip_unitary(ph, al, be)
            assert np.linalg.norm(u @ up - down) <= 1e-13
            assert np.linalg.norm(u.conj().T @ down - up) <= 1e-13
            assert np.linalg.norm(u @ u.conj().T - np.eye(2)) <= 1e-14

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_angle_or_phase_rejected(self, value, slot):
        """A NaN or infinite angle or phase raises instead of returning NaN
        components, for floats and inside an (N,) array."""
        for batch in (False, True):
            args = [0.3, 1.2, 0.4, -0.7]
            args[slot] = np.array([0.5, value]) if batch else value
            theta, phi, t1, t2 = args
            with pytest.raises(DomainError, match="finite"):
                sp.helicity_components(theta, phi, 1, t1, t2)
            if slot > 0:   # (phi, alpha, beta)
                with pytest.raises(DomainError, match="finite"):
                    sp.index_flip_unitary(*args[1:])


class TestDiracSpinors:
    def test_rest_parity_eigenvalue(self):
        p = make_momentum(0, 0, 0, 2.0)
        u = sp.dirac_spinor(p, "particle", "up")
        assert np.allclose(gamma0 @ u.components, u.components)
        v = sp.dirac_spinor(p, "antiparticle", "up")
        assert np.allclose(gamma0 @ v.components, -v.components)

    def test_first_order_equations(self, random_momenta):
        from elko.dynamics import dirac_matrix

        for p in random_momenta(10):
            gp = dirac_matrix(p)
            for basis in ("spinorial", "helicity"):
                for index in ("up", "down"):
                    u = sp.dirac_spinor(p, "particle", index, basis).components
                    v = sp.dirac_spinor(p, "antiparticle", index, basis).components
                    assert np.linalg.norm(gp @ u - p.m * u) <= 1e-12 * np.linalg.norm(u)
                    assert np.linalg.norm(gp @ v + p.m * v) <= 1e-12 * np.linalg.norm(v)

    def test_helicity_basis_block_eigenrelation(self):
        from elko.matrices import pauli_dot

        p = make_momentum(1, -2, 0.5, 1.5)
        u = sp.dirac_spinor(p, "particle", "up", "helicity")
        n = p.direction()
        upper = u.components[:2]
        assert np.linalg.norm(pauli_dot(n) @ upper - upper) <= 1e-12 * np.linalg.norm(upper)


class TestEigenstructure:
    def test_helicity_family_is_chiral_helicity_eigen(self, random_momenta):
        for p in random_momenta(10):
            if p.p_abs == 0:
                continue
            eta = chiral_helicity_operator(p)
            for index in ("up", "down"):
                for fn, family in ((sp.lambda_spinor, "lambda"), (sp.rho_spinor, "rho")):
                    v = fn(p, "S", index, "helicity").components
                    v = v / np.linalg.norm(v)
                    ev = 0.5 * sp.chiral_helicity_sign(family, index)
                    assert np.linalg.norm(eta.apply(v) - ev * v) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(log_m=st.floats(-6.0, 6.0), log_ratio=st.floats(-12.0, 12.0),
           log_angle=st.floats(-8.0, -2.0), azimuth=st.floats(0.0, 2.0 * math.pi),
           south=st.booleans(), theta1=st.floats(-math.pi, math.pi),
           theta2=st.floats(-math.pi, math.pi))
    def test_chiral_helicity_eigen_near_the_z_axis_over_the_whole_domain(
            self, log_m, log_ratio, log_angle, azimuth, south, theta1, theta2):
        """m in [1e-6, 1e6], |p|/m from 1e-12 to 1e12 (at rest there is no
        direction), directions 1e-8 to 1e-2 rad from +z or -z: every
        helicity-basis lambda and rho, S and A, up and down, is a
        chiral-helicity eigenstate with eigenvalue +-1/2 to the identity
        tolerance relative to its norm, at one momentum and on a batch that
        also holds the mirror direction and three more azimuths."""
        m, angle = 10.0 ** log_m, 10.0 ** log_angle
        pabs = m * 10.0 ** log_ratio
        polar = np.array([math.pi - angle if south else angle] * 4 + [angle, math.pi - angle] * 2)
        phi = azimuth + np.array([0.0, 0.5, 1.0, 1.5, 0.0, 0.0, 1.0, 1.0]) * math.pi
        batch = make_momenta(pabs * np.sin(polar) * np.cos(phi), pabs * np.sin(polar) * np.sin(phi),
                             pabs * np.cos(polar), m)
        cfg = sp.PhaseConfig(theta1=theta1, theta2=theta2)
        tol = TOLERANCES["identity"]
        for p in (batch[0], batch):
            eta = chiral_helicity_operator(p)
            for fn, family in ((sp.lambda_components, "lambda"), (sp.rho_components, "rho")):
                for kind, index in itertools.product(sp.KINDS_SELF, sp.INDICES):
                    v = fn(p, kind, index, "helicity", cfg)
                    ev = 0.5 * sp.chiral_helicity_sign(family, index)
                    residual = np.linalg.norm(eta.apply(v) - ev * v, axis=-1)
                    assert np.all(residual <= tol * np.linalg.norm(v, axis=-1))

    def test_not_helicity_eigen_generic_momentum(self):
        p = make_momentum(1.0, 2.0, 3.0, 1.5)
        h = helicity_operator(p)
        for basis in ("spinorial", "helicity"):
            v = sp.lambda_spinor(p, "S", "up", basis).components
            v = v / np.linalg.norm(v)
            hv = h.apply(v)
            fit = np.vdot(v, hv)
            assert np.linalg.norm(hv - fit * v) > 0.1

    def test_spinorial_chiral_helicity_on_axis(self):
        p = make_momentum(0, 0, 2.0, 1.0)
        eta = chiral_helicity_operator(p)
        lam = sp.lambda_spinor(p, "S", "up").components
        rho = sp.rho_spinor(p, "S", "up").components
        assert np.linalg.norm(eta.apply(lam) - 0.5 * lam) <= 1e-12 * np.linalg.norm(lam)
        assert np.linalg.norm(eta.apply(rho) + 0.5 * rho) <= 1e-12 * np.linalg.norm(rho)


class TestParityRelations:
    def test_spinorial_lambda_images(self, random_momenta):
        relations = [("S", "up", "down", 1j), ("S", "down", "up", -1j),
                     ("A", "up", "down", -1j), ("A", "down", "up", 1j)]
        for p in random_momenta(10):
            pr = parity_reflect(p)
            for kind, src, dst, coeff in relations:
                img = gamma0 @ sp.lambda_spinor(pr, kind, src).components
                tgt = coeff * sp.lambda_spinor(p, kind, dst).components
                assert np.linalg.norm(img - tgt) <= 1e-12 * np.linalg.norm(tgt)


class TestBarProducts:
    def test_lambda_self_pairing_vanishes(self, random_momenta):
        for p in random_momenta(10):
            lu = sp.lambda_spinor(p, "S", "up")
            assert abs(sp.bar_product(lu, lu)) <= 1e-12 * p.m

    def test_dirac_normalisation(self, random_momenta):
        for p in random_momenta(10):
            u = sp.dirac_spinor(p, "particle", "up")
            v = sp.dirac_spinor(p, "antiparticle", "down")
            assert sp.bar_product(u, u) == pytest.approx(2 * p.m, abs=1e-11)
            assert sp.bar_product(v, v) == pytest.approx(-2 * p.m, abs=1e-11)

    def test_lambda_cross_pairing_modulus_and_phase(self, random_momenta):
        # golden value: lambda-bar^S_up lambda^S_down = -i m at every momentum
        for p in random_momenta(10):
            val = sp.bar_product(sp.lambda_spinor(p, "S", "up"),
                                 sp.lambda_spinor(p, "S", "down"))
            assert abs(abs(val) - p.m) <= 1e-12 * p.m
            assert abs(val - (-1j) * p.m) <= 1e-11 * p.m

    def test_momentum_context_mismatch_rejected(self):
        a = sp.lambda_spinor(make_momentum(1, 0, 0, 1.0), "S", "up")
        b = sp.lambda_spinor(make_momentum(0, 1, 0, 1.0), "S", "up")
        with pytest.raises(DomainError):
            sp.bar_product(a, b)

    @staticmethod
    def _quartet(first, second):
        """(lambda^S, rho^A, lambda^A, rho^S), the rho spinors at ``second``."""
        return [sp.lambda_spinor(first, "S", "up"), sp.rho_spinor(second, "A", "up"),
                sp.lambda_spinor(first, "A", "down"), sp.rho_spinor(second, "S", "down")]

    def test_spinors_at_equal_batches_pair_like_their_components(self):
        """Spinors at two distinct batch objects with equal fields pair as
        their bare components do, also in the Lagrangian mass term."""
        batch = sample_momenta(np.random.default_rng(4), 5)
        copy = make_momenta(batch.px, batch.py, batch.pz, batch.m)
        quartet = self._quartet(batch, copy)
        bare = [spinor.components for spinor in quartet]
        assert np.array_equal(sp.bar_product(*quartet[:2]), sp.bar_product(*bare[:2]))
        assert np.array_equal(dyn.lagrangian_mass_term(*quartet, batch.m),
                              dyn.lagrangian_mass_term(*bare, batch.m))

    def test_spinors_at_different_batches_rejected(self):
        batch = sample_momenta(np.random.default_rng(4), 5)
        other = make_momenta(batch.px, batch.py, -batch.pz, batch.m)
        quartet = self._quartet(batch, other)
        with pytest.raises(DomainError):
            sp.bar_product(*quartet[:2])
        with pytest.raises(DomainError):
            dyn.lagrangian_mass_term(*quartet, batch.m)

    @pytest.mark.parametrize("rows", [5, 1])
    def test_batch_against_one_row_rejected(self, rows):
        batch = sample_momenta(np.random.default_rng(4), rows)
        quartet = self._quartet(batch, batch[0])
        with pytest.raises(DomainError):
            sp.bar_product(*quartet[:2])
        with pytest.raises(DomainError):
            sp.bar_product(quartet[1], quartet[0])


_KINDS, _INDICES, _BASES = ("S", "A"), ("up", "down"), ("spinorial", "helicity")
_ZEROS = np.zeros(4, dtype=complex)
# One call per public label argument, each with one bad label, and the
# argument's name and allowed values that its error states.
_LABEL_REJECTIONS = {
    lambda p: sp.lambda_spinor(p, "X", "up"): ("kind", _KINDS),
    lambda p: sp.rho_spinor(p, "S", "sideways"): ("index", _INDICES),
    lambda p: sp.lambda_spinor(p, "S", "up", "fixed"): ("basis", _BASES),
    lambda p: sp.dirac_spinor(p, "S", "up"): ("sign", ("particle", "antiparticle")),
    lambda p: sp.dirac_spinor(p, "particle", "left"): ("index", _INDICES),
    lambda p: sp.dirac_spinor(p, "particle", "up", "fixed"): ("basis", _BASES),
    lambda p: sp.rest_rho("X", "up", 1.0): ("kind", _KINDS),
    lambda p: sp.rest_lambda("S", "sideways", 1.0): ("index", _INDICES),
    lambda p: sp.Bispinor(_ZEROS, "w", "S", "up", "spinorial", p): ("family",
                                                                    ("lambda", "rho", "u", "v")),
    lambda p: sp.Bispinor(_ZEROS, "u", "particle", "left", "spinorial", p): ("index", _INDICES),
    lambda p: sp.Bispinor(_ZEROS, "v", "antiparticle", "up", "fixed", p): ("basis", _BASES),
    lambda p: sp.helicity_components(0.3, 0.2, 0): ("h", (1, -1)),
    lambda p: sp.chiral_helicity_sign("u", "up"): ("family", ("lambda", "rho")),
    lambda p: sp.chiral_helicity_sign("rho", "left"): ("index", _INDICES),
    lambda p: kin.boost_half(p, "X"): ("side", ("R", "L")),
    lambda p: kin.boost_one(p, "X"): ("side", ("R", "L")),
    lambda p: ops.chiral_gauge_transform(0.1, "dirac"): ("family", ("lambda", "rho")),
    lambda p: ops.classify_cp_action("fixed", "elko", n_momenta=2): ("basis", _BASES),
    lambda p: ops.classify_cp_action("helicity", "lambda", n_momenta=2): ("family",
                                                                         ("dirac", "elko")),
    lambda p: s1.spin1_helicity_triplet_at(p, 2): ("h", (1, 0, -1)),
    lambda p: s1.spin1_pair(p, "sigma", 1): ("construction", ("lambda", "rho")),
    lambda p: s1.spin1_conjugacy_scan(p, "nope"): ("operator", ("sc", "g5sc")),
    lambda p: dyn.FrequencyConvention(0): ("sign", (1, -1)),
}


class TestLabelsAndPhases:
    @pytest.mark.parametrize("name", ["theta_c", "theta1", "theta2"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_phase_rejected(self, name, value):
        with pytest.raises(DomainError, match=name):
            sp.PhaseConfig(**{name: value})

    def test_finite_phases_accepted(self):
        cfg = sp.PhaseConfig(theta_c=-1e300, theta1=5e-324, theta2=2 * math.pi)
        for e, (lam, rho) in zip(cfg.factors, cfg.dressings):
            c = e.conjugate()
            assert lam.tolist() == [c, c, e, e] and rho.tolist() == [e, e, c, c]

    @pytest.mark.parametrize("family,kind", [
        ("lambda", "X"), ("rho", "particle"), ("lambda", "antiparticle"), ("u", "S"),
        ("u", "antiparticle"), ("v", "particle"), ("v", "A")])
    def test_public_construction_checks_the_kind(self, family, kind):
        p = make_momentum(0.3, -0.4, 1.2, 0.9)
        with pytest.raises(DomainError, match="kind"):
            sp.Bispinor(np.zeros(4, dtype=complex), family, kind, "up", "spinorial", p)

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 4), (1, 4), (4, 1), ()])
    def test_public_construction_checks_the_shape_at_one_momentum(self, shape):
        """A spinor at one momentum has four components: a (3,) array or a
        (2, 4) stack raises, not later inside ``bar_product``."""
        p = make_momentum(0.3, -0.4, 1.2, 0.9)
        with pytest.raises(DomainError, match="shape"):
            sp.Bispinor(np.zeros(shape), "lambda", "S", "up", "spinorial", p)

    def test_public_construction_checks_the_shape_on_a_batch(self):
        """On a batch of N the components are (N, 4) rows."""
        batch = sample_momenta(np.random.default_rng(3), 3)
        rows = sp.lambda_components(batch, "S", "up")
        spinor = sp.Bispinor(rows, "lambda", "S", "up", "spinorial", batch)
        assert spinor.components is rows
        assert sp.bar_product(spinor, spinor).shape == (3,)
        for bad in (rows[:2], rows[0], rows[:, :3], rows[None]):
            with pytest.raises(DomainError, match="shape"):
                sp.Bispinor(bad, "lambda", "S", "up", "spinorial", batch)

    def test_every_factory_spinor_passes_the_public_checks(self):
        """The factories label their spinors without the dataclass checks;
        each label set they produce is one the public construction accepts,
        and the public construction gives the same spinor."""
        p = make_momentum(0.3, -0.4, 1.2, 0.9)
        factories = [(fn, kind) for fn in (sp.lambda_spinor, sp.rho_spinor) for kind in "SA"]
        factories += [(sp.dirac_spinor, sign) for sign in ("particle", "antiparticle")]
        for (fn, kind), index, basis in itertools.product(factories, sp.INDICES, sp.BASES):
            made = fn(p, kind, index, basis)
            public = sp.Bispinor(made.components, made.family, made.kind, made.index,
                                 made.basis, made.momentum)
            for field in dataclasses.fields(sp.Bispinor):
                assert getattr(public, field.name) is getattr(made, field.name), field.name

    @pytest.mark.parametrize("call", list(_LABEL_REJECTIONS))
    def test_factories_check_their_labels(self, call):
        """Every public label argument, of the factories and of the other
        entry points that take one, rejects a bad value with a
        ``DomainError`` that names the argument and lists its values."""
        name, allowed = _LABEL_REJECTIONS[call]
        with pytest.raises(DomainError) as raised:
            call(make_momentum(0.3, -0.4, 1.2, 0.9))
        assert str(raised.value).startswith(f"{name} must be one of {allowed}, got ")


class TestGoldenFile:
    def test_round_trip(self, tmp_path):
        momenta = [make_momentum(*m) for m in golden.MOMENTA]
        path = tmp_path / "golden.txt"
        golden.write_golden(path, momenta)
        records = golden.read_golden(path)
        assert len(records) == len(momenta) * 8
        for family, kind, index, p, comps in records:
            fn = sp.lambda_spinor if family == "lambda" else sp.rho_spinor
            assert np.allclose(fn(p, kind, index).components, comps, atol=1e-15)

    def test_checked_in_regression(self):
        # text against text, so a last bit or the sign of a zero part shows
        lines = (DATA / "spinors_golden.txt").read_text().splitlines()
        assert lines[0] == golden.GOLDEN_HEADER
        records = golden.golden_records([make_momentum(*m) for m in golden.MOMENTA])
        assert len(records) == len(golden.MOMENTA) * 8
        for line, record in zip(lines[1:], records, strict=True):
            assert line == record

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-golden-file\n")
        with pytest.raises(DomainError):
            golden.read_golden(path)
