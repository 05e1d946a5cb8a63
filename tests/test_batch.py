"""The batched kernels against the scalar API, row by row.

Every scalar factory is the N = 1 call of the same kernel body, so a batch
of N momenta must reproduce the N scalar calls: exactly for the boosts, u1
and the helicity operators (the same real arithmetic in the same order; the
operators down to their zero signs), and to 1e-15 relative for Xi and the
transforms, whose trigonometric and exponential ufuncs may round
differently on arrays and on scalars.  The spinor factories are exact
too: each row is its one-momentum call, under every phase configuration
of ``PHASE_CONFIGS``, on the rows ``test_factory_forms`` pins and on the
generic rows.
"""

import math

import numpy as np
import pytest

from elko import TOLERANCES
from elko import dynamics as dyn
from elko import kinematics as kin
from elko import operators as ops
from elko import spin_one as s1
from elko import spinors as sp
from elko.errors import DimensionError, DomainError
from elko.matrices import theta_half
from elko.suite import RunContext

from conftest import PHASE_CONFIGS, assert_same_bits

N = 1000
HELICITY_RTOL = 1e-15


@pytest.fixture(scope="module")
def batch():
    return RunContext(seed=11, samples=N).momenta("batch-kernels")


@pytest.fixture(scope="module")
def rows(batch):
    return list(batch)


def _rows_close(batched, scalar_rows, rtol):
    scalar = np.array(scalar_rows)
    assert batched.shape == scalar.shape
    axes = tuple(range(1, scalar.ndim))
    err = np.linalg.norm(batched - scalar, axis=axes)
    assert np.all(err <= rtol * np.linalg.norm(scalar, axis=axes))


FACTORIES = [(kernel, factory, kind, index)
             for kernel, factory, kinds in (
                 (sp.lambda_components, sp.lambda_spinor, sp.KINDS_SELF),
                 (sp.rho_components, sp.rho_spinor, sp.KINDS_SELF),
                 (sp.dirac_components, sp.dirac_spinor, ("particle", "antiparticle")))
             for kind in kinds for index in sp.INDICES]


@pytest.fixture(scope="module")
def spinor_rows(bit_rows, rows):
    """The rows of ``test_factory_forms``, then the generic rows."""
    return [*(kin.make_momentum(*row) for row in bit_rows), *rows]


def _rows_are_their_calls(momenta, kernel, factory, kind, index, basis):
    batch = kin.as_batch(momenta)
    for cfg in PHASE_CONFIGS:
        assert_same_bits(kernel(batch, kind, index, basis, cfg),
                         [factory(p, kind, index, basis, cfg).components for p in momenta])


class TestSpinorKernels:
    @pytest.mark.parametrize("kernel,factory,kind,index", FACTORIES)
    def test_spinorial_bit_identical(self, spinor_rows, kernel, factory, kind, index):
        _rows_are_their_calls(spinor_rows, kernel, factory, kind, index, "spinorial")

    @pytest.mark.parametrize("kernel,factory,kind,index", FACTORIES)
    def test_helicity_rows_match(self, spinor_rows, kernel, factory, kind, index):
        _rows_are_their_calls(spinor_rows, kernel, factory, kind, index, "helicity")

    def test_boosts_bit_identical(self, rows):
        # the last row's off-diagonal entries have subnormal parts whose
        # products round to zero, with a sign that the product form decides
        momenta = kin.as_batch([*rows, kin.make_momentum(0.0, 5e-324, -1.5, 2.0)])
        for side in ("R", "L"):
            assert_same_bits(kin.boost_half(momenta, side),
                             [kin.boost_half(p, side) for p in momenta])
        assert_same_bits(kin.boost_half_pair(momenta), [kin.boost_half_pair(p) for p in momenta])

    def test_bar_product_rows(self, batch, rows):
        lu = sp.lambda_components(batch, "S", "up")
        ld = sp.lambda_components(batch, "S", "down")
        scalar = [sp.bar_product(sp.lambda_spinor(p, "S", "up"), sp.lambda_spinor(p, "S", "down"))
                  for p in rows]
        assert np.allclose(sp.bar_product(lu, ld), scalar, rtol=HELICITY_RTOL, atol=0)


class TestOperatorKernels:
    @pytest.mark.parametrize("kernel", [ops.u1, lambda p: ops.helicity_operator(p).matrix,
                                        lambda p: ops.chiral_helicity_operator(p).matrix],
                             ids=["u1", "helicity", "chiral-helicity"])
    def test_square_root_operators_bit_identical(self, batch, rows, kernel):
        """Square roots, divisions and numpy products only, no exp or trig:
        each row is its N = 1 call, values and zero signs."""
        assert_same_bits(kernel(batch), [kernel(p) for p in rows])

    def test_momentum_dependent_operators(self, batch, rows):
        _rows_close(ops.xi_matrix(batch), [ops.xi_matrix(p) for p in rows], HELICITY_RTOL)
        scalar = [ops.lambda_basis_transforms(p) for p in rows]
        for k, t in enumerate(ops.lambda_basis_transforms(batch)):
            _rows_close(t, [ts[k] for ts in scalar], HELICITY_RTOL)

    def test_apply_on_rows(self, batch, rows):
        c_op = ops.charge_conjugation(sp.PhaseConfig(theta_c=0.4))
        v = sp.lambda_components(batch, "A", "down", "helicity")
        _rows_close(c_op.apply(v), [c_op.apply(x) for x in v], 0.0)

    def test_xi_checks_every_row(self, batch):
        # a rest row has no direction, wherever it sits in the batch
        with_rest = kin.make_momenta(np.r_[batch.px[:5], 0.0], np.r_[batch.py[:5], 0.0],
                                     np.r_[batch.pz[:5], 0.0], np.r_[batch.m[:5], 1.0])
        with pytest.raises(DomainError):
            ops.xi_matrix(with_rest)


class TestDynamicsKernels:
    def test_residual_rows(self, batch, rows):
        conv = dyn.FrequencyConvention(1)
        coupled = np.array(dyn.coupled_system_residual(batch, conv)).T
        assert coupled.shape == (N, 4)
        assert np.allclose(coupled, [dyn.coupled_system_residual(p, conv) for p in rows],
                           rtol=0, atol=1e-15 * batch.E.max())
        eight = dyn.eight_component_residual(batch, conv)
        assert np.allclose(eight, [dyn.eight_component_residual(p, conv) for p in rows],
                           rtol=0, atol=1e-15 * batch.E.max())
        assert np.array_equal(dyn.dirac_matrix(batch),
                              np.array([dyn.dirac_matrix(p) for p in rows]))

    def test_convention_from_batch_or_list(self, batch):
        assert dyn.discover_convention(batch[:16]).sign == 1
        assert dyn.discover_convention(list(batch[:16])).sign == 1


def _rest_spinors(p, h):
    """The helicity rest spinors on p's direction, built by hand."""
    f = kin._ring_window(p.helicity_ring, h, h)[..., :2]
    tf = np.conj(f) @ theta_half.T
    half = math.sqrt(p.m / 2.0)
    return {
        ("lambda", "S"): half * np.concatenate([1j * tf, f]),
        ("lambda", "A"): half * np.concatenate([-1j * tf, f]),
        ("rho", "S"): half * np.concatenate([f, -1j * tf]),
        ("rho", "A"): half * np.concatenate([f, 1j * tf]),
        ("u", "particle"): math.sqrt(p.m) * np.concatenate([f, f]),
        ("v", "antiparticle"): math.sqrt(p.m) * np.concatenate([f, -f]),
    }


@pytest.mark.parametrize("ratio", [0.0, 1e-6, 0.3, 1.0, 10.0, 1e3, 1e6])
def test_helicity_closed_form_is_the_boost(ratio):
    """The eigenvalue factor equals the explicit 4x4 boost of the rest
    spinor, to the rounding of that product (8 flops per component)."""
    rng = np.random.default_rng(int(ratio * 7) + 3)
    kernels = {"lambda": sp.lambda_components, "rho": sp.rho_components,
               "u": sp.dirac_components, "v": sp.dirac_components}
    for _ in range(20):
        m = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        p = kin.make_momentum(*(ratio * m * n), m)
        boost = kin.boost_half_pair(p)
        scale = np.linalg.norm(boost, 2)
        for index, h in (("up", 1), ("down", -1)):
            for (family, kind), rest in _rest_spinors(p, h).items():
                closed = kernels[family](p, kind, index, "helicity")
                explicit = boost @ rest
                assert np.linalg.norm(closed - explicit) <= 1e-14 * scale * np.linalg.norm(rest)


SCANS = [(op, construction, h) for op in ("sc", "g5sc")
         for construction in ("lambda", "rho") for h in (1, 0, -1)]


class TestSpinOneKernels:
    @pytest.fixture(scope="class")
    def mixed(self, batch):
        # a rest row, a row whose azimuth rounds to 2 pi, and moving rows
        return kin.as_batch([kin.make_momentum(0, 0, 0, 0.9),
                             kin.make_momentum(1.0, -1e-17, 0.0, 1.0), *batch[:30]])

    def test_boost_one_rows(self, mixed):
        for side in "RL":
            assert np.array_equal(kin.boost_one(mixed, side),
                                  [kin.boost_one(p, side) for p in mixed])

    @pytest.mark.parametrize("op,construction,h", SCANS)
    def test_scan_rows_match_single_calls(self, mixed, op, construction, h):
        scan = s1.spin1_conjugacy_scan(mixed, op, construction, h)
        singles = [s1.spin1_conjugacy_scan(p, op, construction, h) for p in mixed]
        for field in ("self_minimum", "anti_minimum"):
            batched = getattr(scan, field)
            rows = [getattr(one, field) for one in singles]
            assert batched.zeta.shape == batched.residual.shape == (len(mixed),)
            assert isinstance(rows[0].zeta, complex) and isinstance(rows[0].residual, float)
            assert np.all(np.abs(batched.zeta - [r.zeta for r in rows]) <= 1e-15)
            assert np.all(np.abs(batched.residual - [r.residual for r in rows]) <= 1e-14)
        assert isinstance(singles[0].floor_exceeded, bool)
        assert list(scan.floor_exceeded) == [one.floor_exceeded for one in singles]
        assert all(scan.floor_exceeded) == (op == "sc")

    @pytest.mark.parametrize("construction", ["lambda", "rho"])
    def test_scan_where_the_azimuth_rounds_to_two_pi(self, mixed, construction):
        p, rows = mixed[1], mixed[:2]
        assert p.py == -1e-17
        for scan in (s1.spin1_conjugacy_scan(p, "g5sc", construction),
                     s1.spin1_conjugacy_scan(rows, "g5sc", construction)):
            worst = np.max([scan.self_minimum.residual, scan.anti_minimum.residual,
                            np.abs(scan.self_minimum.zeta - 1.0),
                            np.abs(scan.anti_minimum.zeta + 1.0)])
            assert worst <= TOLERANCES["zeta_minimum"]
        assert s1.spin1_conjugacy_scan(p, "sc", construction).floor_exceeded
        assert s1.spin1_conjugacy_scan(rows, "sc", construction).floor_exceeded[1]


class TestMomentumBatch:
    def test_rows_are_make_momentum(self, batch, rows):
        assert len(batch) == len(rows) == N
        for p in rows[:50]:
            assert p == kin.make_momentum(p.px, p.py, p.pz, p.m)
        assert batch[3] == rows[3]
        assert list(batch[10:13]) == rows[10:13]
        mask = batch.pz > 0
        assert list(batch[mask]) == [p for p in rows if p.pz > 0]

    def test_derived_fields_match_rows(self, batch, rows):
        for name in ("p_r", "p_l", "p_plus", "p_minus", "p_abs"):
            assert np.array_equal(getattr(batch, name), [getattr(p, name) for p in rows])
        assert np.array_equal(batch.direction(), [p.direction() for p in rows])

    def test_read_only(self, batch):
        with pytest.raises(ValueError):
            batch.px[0] = 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            kin.make_momenta([0.0, bad], [0.0, 0.0], [1.0, 0.0], 1.0)
        with pytest.raises(DomainError):
            kin.make_momenta([1.0], [0.0], [0.0], [abs(bad)])

    def test_shape_and_mass_rejected(self):
        with pytest.raises(DimensionError):
            kin.make_momenta([[1.0]], [[0.0]], [[0.0]], 1.0)
        with pytest.raises(DomainError):
            kin.make_momenta([1.0, 2.0], 0.0, 0.0, [1.0, 0.0])
