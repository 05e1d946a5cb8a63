"""Each structured kernel against the dense form it replaces.

A fixed matrix acts on all rows as one product, the intertwiner residual is
formed from Xi's diagonal, Xi is built and asserted once per momentum from
the boost columns and the lambda-basis transforms are one gather from it,
gamma.p is built from its sigma.p blocks and applied by them, the coupled
rows of both indices come from one call, the span residual projects by
Gram-Schmidt and the spin-1 checks scan every (construction, h) pair at
once.  Each is compared with the dense or per-call form on generic rows and
on the edges of the domain: a rest row, rows along +-z, a row 1e-8 rad off
-z and |p|/m up to 1e12.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from elko import dynamics as dyn
from elko import kinematics as kin
from elko import matrices as mat
from elko import operators as ops
from elko import spin_one as s1
from elko import spinors as sp
from elko import suite
from elko.errors import AmbiguousIntertwinerError
from elko.suite import run_suite

from conftest import assert_same_bits
from test_factory_forms import boost_matrix, two_spinor


@pytest.fixture(scope="module")
def batch(edge_rows):
    generic = kin.sample_momenta(np.random.default_rng(9), 200)
    edges = np.array(edge_rows).T
    return kin.make_momenta(*(np.concatenate([g, e]) for g, e in zip(
        (generic.px, generic.py, generic.pz, generic.m), edges)))


@pytest.fixture(scope="module")
def moving(batch):
    return batch[batch.p_abs > 0.0]


def _four_gamma_sum(e, px, py, pz):
    """gamma.p as the sum over the four gamma matrices, the dense form the
    block construction replaces."""
    e, px, py, pz = (np.asarray(x)[..., None, None] for x in (e, px, py, pz))
    return mat.GAMMA[0] * e - mat.GAMMA[1] * px - mat.GAMMA[2] * py - mat.GAMMA[3] * pz


# ---------------------------------------------------------------------------
# fixed matrix: one product over all rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(50, 4), (50, 6), (4,), (3, 50, 4)])
def test_fixed_matvec_matches_the_stacked_product(rng, shape):
    k = shape[-1]
    a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stacked = (np.broadcast_to(a, shape[:-1] + (k, k)) @ x[..., None])[..., 0]
    got = mat.matvec(a, x)
    assert got.shape == shape
    assert np.max(np.abs(got - stacked)) <= 1e-14 * np.max(np.abs(stacked))


def test_fixed_operators_apply_exactly(batch):
    # C, P and gamma5 have one unit entry per row, so the one product is exact
    for op in (ops.charge_conjugation(), ops.parity_operator(), ops.chirality(),
               ops.charge_conjugation().compose(ops.parity_operator())):
        for index in sp.INDICES:
            x = sp.lambda_components(batch, "S", index, "helicity")
            operand = np.conj(x) if op.antilinear else x
            stacked = op.phase * (op.matrix @ operand[..., None])[..., 0]
            assert np.array_equal(op.apply(x), stacked)


# ---------------------------------------------------------------------------
# one row norm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(200, 4), (200, 8), (4,), (2, 200, 4)])
def test_rownorm_matches_linalg_norm(rng, shape):
    x = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-8, 8)
    ref = np.linalg.norm(x, axis=-1)
    assert np.max(np.abs(mat.rownorm(x) - ref) / ref) <= 4e-16
    real = x.real
    assert np.max(np.abs(mat.rownorm(real) - np.linalg.norm(real, axis=-1))
                  / np.linalg.norm(real, axis=-1)) <= 4e-16


def test_rownorm_of_matrices_is_the_frobenius_norm(rng):
    a = rng.normal(size=(100, 4, 4)) + 1j * rng.normal(size=(100, 4, 4))
    ref = np.linalg.norm(a, axis=(-2, -1))
    assert np.max(np.abs(mat.rownorm(a, matrix=True) - ref) / ref) <= 4e-16
    # a non-contiguous view is copied first
    t = np.swapaxes(a, -1, -2)
    assert np.max(np.abs(mat.rownorm(t, matrix=True) - ref) / ref) <= 4e-16


# ---------------------------------------------------------------------------
# gamma.p from its blocks
# ---------------------------------------------------------------------------

def test_dirac_matrix_is_the_four_gamma_sum_bit_for_bit(batch):
    generic = kin.sample_momenta(np.random.default_rng(3), 1000)
    for p in (generic, generic[0], kin.make_momentum(0.3, -0.4, 0.5, 1.0)):
        blocks = dyn.dirac_matrix(p)
        dense = _four_gamma_sum(p.E, p.px, p.py, p.pz)
        assert_same_bits(blocks, dense)
    # on the axes a component is exactly 0 and only the sign of a zero
    # entry may differ
    assert np.array_equal(dyn.dirac_matrix(batch), _four_gamma_sum(batch.E, *batch.vec.T))


def test_slash_is_the_four_gamma_sum_off_shell(rng):
    e, px, py, pz = rng.normal(size=(4, 50))
    assert np.array_equal(dyn.slash(e, px, py, pz), _four_gamma_sum(e, px, py, pz))
    assert np.array_equal(dyn.slash(5.0, 0.4, -0.3, 0.9), _four_gamma_sum(5.0, 0.4, -0.3, 0.9))


def _dense_coupled_equations(p, conv, psi):
    """The coupled rows with gamma.p psi as the stacked (..., N, 4, 4)
    product, the dense form the block product replaces."""
    gp = dyn.dirac_matrix(p)[..., None, :, :]
    sectors = np.array([1.0, 1.0, -1.0, -1.0])[:, None]
    mass = sectors * np.asarray(p.m)[..., None, None]
    eqs = conv.sign * sectors * mat.matvec(gp, psi)
    return eqs - mass * psi.take([1, 0, 3, 2], axis=-2)


@pytest.mark.parametrize("sign", [1, -1])
def test_block_slash_product_matches_the_dense_matvec(batch, rng, sign):
    """gamma.p psi by its blocks, ((E + sigma.p) psi_L, (E - sigma.p) psi_R),
    against matvec(dirac_matrix(p), psi), on the physical states and on
    random ones, to rounding in E |psi|."""
    conv = dyn.FrequencyConvention(sign)
    for p in (batch, batch[5], batch[-1], batch[len(batch) - 8]):
        n = (len(p),) if isinstance(p, kin.MomentumBatch) else ()
        shape = (2,) + n + (4, 4)
        noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for states in (dyn.physical_states(p), noise):
            block = dyn.coupled_equations(p, conv, states)
            dense = _dense_coupled_equations(p, conv, states)
            assert block.shape == dense.shape
            scale = np.asarray(p.E)[..., None] * mat.rownorm(states)
            assert np.all(mat.rownorm(block - dense) <= 1e-15 * scale)


def _per_index_residual(p, conv):
    """The coupled residual as two calls, one per index (the loop the
    one-call form replaces)."""
    worst = 0.0
    for states in dyn.physical_states(p):   # index up, then down
        worst = np.maximum(worst, mat.rownorm(dyn.coupled_equations(p, conv, states)))
    return tuple(np.moveaxis(worst, -1, 0))


@pytest.mark.parametrize("sign", [1, -1])
def test_coupled_residual_in_one_call_matches_the_per_index_loop(batch, sign):
    conv = dyn.FrequencyConvention(sign)
    for p in (batch, batch[5], batch[-1]):
        one, loop = dyn.coupled_system_residual(p, conv), _per_index_residual(p, conv)
        assert np.array_equal(np.array(one), np.array(loop))
        assert type(one[0]) is type(loop[0])
        states = dyn.physical_states(p)
        dense = np.max([np.linalg.norm(dyn.coupled_equations(p, conv, quartet), axis=-1)
                        for quartet in states], axis=0)
        scale = p.E * dyn.physical_state_scale(states)
        assert np.all(np.abs(np.moveaxis(np.array(one), 0, -1) - dense)
                      <= 1e-15 * np.asarray(scale)[..., None])


# ---------------------------------------------------------------------------
# Xi through its diagonal
# ---------------------------------------------------------------------------

def test_xi_residual_matches_the_dense_products(moving):
    """The one intertwiner residual at one momentum is the norm of the dense
    Xi Lambda - Lambda^* Xi, and its scale is the boost's norm."""
    xi = ops.xi_matrix(moving)
    assert xi.shape == (len(moving), 2, 2)
    for side in ("R", "L"):
        lam = kin.boost_half(moving, side)
        dense = np.linalg.norm(xi @ lam - np.conj(lam) @ xi, axis=(-2, -1))
        scale = np.linalg.norm(lam, axis=(-2, -1))
        one = kin._intertwiner_residual(xi[4], moving[4], side)
        assert abs(one[0] - dense[4]) <= 1e-15 * scale[4] and one[1] == pytest.approx(scale[4])


def test_xi_column_residual_matches_the_dense_products(moving):
    """The residual formed from the boost columns is the norm of the dense
    Xi Lambda - Lambda^* Xi, and its scale is the boost's norm, row by row."""
    xi = ops.xi_matrix(moving)
    for side in ("R", "L"):
        lam = kin.boost_half(moving, side)
        dense = np.linalg.norm(xi @ lam - np.conj(lam) @ xi, axis=(-2, -1))
        resid, norm = kin._intertwiner_residual(xi, moving, side)
        assert np.all(np.abs(resid - dense) <= 1e-15 * norm)
        assert np.allclose(norm, mat.rownorm(lam, matrix=True), rtol=1e-15, atol=0)


def test_xi_residual_sees_a_wrong_intertwiner(moving):
    lam = kin.boost_half(moving, "R")
    wrong = np.broadcast_to(np.diag([1.0, 1.0]).astype(complex) / math.sqrt(2.0), lam.shape)
    dense = np.linalg.norm(wrong @ lam - np.conj(lam) @ wrong, axis=(-2, -1))
    assert np.allclose(kin._intertwiner_residual(wrong, moving, "R")[0], dense, rtol=1e-14,
                       atol=0)
    assert np.max(dense) > 1.0


# ---------------------------------------------------------------------------
# span residual by Gram-Schmidt
# ---------------------------------------------------------------------------

def _qr_span_residual(basis, x):
    q, _ = np.linalg.qr(basis)
    r = x - mat.matvec(q, mat.matvec(mat.adjoint(q), x))
    return np.linalg.norm(r, axis=-1) / np.linalg.norm(x, axis=-1)


def test_gram_schmidt_matches_qr_on_the_dirac_spans(batch):
    us, vs = ([sp.dirac_components(batch, sign, i) for i in sp.INDICES]
              for sign in ("particle", "antiparticle"))
    c_op = ops.charge_conjugation()
    for span, images in ((np.stack(vs, axis=-1), us), (np.stack(us, axis=-1), vs)):
        for x in images:
            gs = suite._span_residual(span, c_op.apply(x))
            assert np.max(gs) <= 1e-14
            assert np.max(np.abs(gs - _qr_span_residual(span, c_op.apply(x)))) <= 1e-14
    # the full u/v basis spans C^4
    full = np.stack(us + vs, axis=-1)
    assert np.max(suite._span_residual(full, np.stack(us))) <= 1e-14


def test_gram_schmidt_matches_qr_off_the_span(rng):
    k, n = 2, 300
    basis = rng.normal(size=(n, 4, k)) + 1j * rng.normal(size=(n, 4, k))
    x = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    gs, qr = suite._span_residual(basis, x), _qr_span_residual(basis, x)
    assert np.min(qr) > 1e-3
    assert np.max(np.abs(gs - qr) / qr) <= 1e-12
    # a stack of vectors is projected row by row
    stacked = suite._span_residual(basis, np.stack([x, 2j * x]))
    assert np.allclose(stacked, [gs, gs], rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# one zeta-scan for every (construction, h) pair
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("operator", ["sc", "g5sc"])
def test_stacked_scan_slices_match_their_own_scans(batch, operator):
    op = s1.sc_one() if operator == "sc" else s1.gamma5_sc_one()
    pairs = list(suite._CONSTRUCTIONS)
    xs, ys = zip(*(s1.spin1_pair(batch, c, h) for c, h in pairs))
    zeta, residual = s1.scan_pairs(np.concatenate(xs), np.concatenate(ys), op)
    n = len(batch)
    for k, (construction, h) in enumerate(pairs):
        own = s1.spin1_conjugacy_scan(batch, operator, construction, h)
        rows = slice(k * n, (k + 1) * n)
        for sign, minimum in enumerate((own.self_minimum, own.anti_minimum)):
            assert np.max(np.abs(residual[sign, rows] - minimum.residual)) <= 1e-14
            assert np.max(np.abs(zeta[sign, rows] - minimum.zeta)) <= 1e-15


def test_scan_kernel_calls_per_pass_do_not_grow_with_samples(monkeypatch):
    """The spin-1 checks scan all (construction, h) pairs in one call each:
    two stacked scans plus the two one-momentum scans of the phase
    covariance check, at any sample count."""
    calls = Counter()
    kernel = s1.scan_pairs

    def counted(*args, **kwargs):
        calls["scan_pairs"] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(s1, "scan_pairs", counted)
    counts = []
    for n in (10, 1000):
        calls.clear()
        report = run_suite("all", 1, n)
        assert report.all_passed
        counts.append(calls["scan_pairs"])
    assert counts == [4, 4]


# ---------------------------------------------------------------------------
# the spinors' frame: boost columns, Wigner image and call counts (the
# spinors' bits are pinned by the reference in test_factory_forms)
# ---------------------------------------------------------------------------

_PHASES = sp.PhaseConfig(theta_c=0.4, theta1=0.9, theta2=-2.3)


def test_dirac_columns_are_the_boost_columns(batch):
    for p in (batch, *batch):
        for side in ("R", "L"):
            reference = boost_matrix(p, side)
            assert_same_bits(kin.boost_half(p, side), reference)
            for j, column in enumerate(kin._boost_columns(p, side)):
                assert_same_bits(mat.vector(*column), reference[..., j])


@pytest.mark.parametrize("h,zeta", itertools.product([1, -1], [1j, -1j]))
def test_helicity_pair_and_its_wigner_image(batch, h, zeta):
    """The image half zeta Theta f* = -h zeta e* phi_{-h} that the helicity
    spinors read off the frame, against zeta conj(f) @ Theta^T for the
    reference f = e phi_h, at N = 1 and on the batch: equal in value at
    default phases, within 4e-16 of the largest component at others.  The
    signs of the image's zero parts are the matmul's own (its one-row
    product makes every zero +0); the reference pins them in the spinors."""
    kind = "S" if zeta == 1j else "A"   # lambda's zeta
    for cfg, p in itertools.product((sp.PhaseConfig(), _PHASES), (*batch, batch)):
        image = sp._dressed_halves(p.helicity_ring, "lambda", kind, h, cfg)[..., :2]
        dense = zeta * (np.conj(cfg.factors[h < 0] * two_spinor(p, h)) @ mat.theta_half.T)
        if cfg == _PHASES:
            scale = np.max(np.abs(dense), axis=-1, keepdims=True)
            assert np.all(np.abs(image - dense) <= 4e-16 * scale)
        else:
            assert np.array_equal(image, dense)


def test_physical_states_are_one_gather(monkeypatch, batch):
    calls = Counter()
    kernel = dyn.boosted_patterns

    def counted(*args):
        calls["gather"] += 1
        return kernel(*args)

    monkeypatch.setattr(dyn, "boosted_patterns", counted)
    for p in (batch, batch[3]):
        calls.clear()
        dyn.physical_states(p)
        assert calls["gather"] == 1


def test_helicity_frame_is_derived_once_for_every_spinor(monkeypatch, batch):
    """All helicity spinors at one momentum read one cached ring of the
    pair: no spinor takes the 2-spinors' sines and cosines again."""
    calls = Counter()
    body = kin._helicity_ring

    def counted(*args):
        calls["ring"] += 1
        return body(*args)

    monkeypatch.setattr(kin, "_helicity_ring", counted)
    for p in (kin.make_momentum(0.3, -0.4, 0.5, 1.0), batch[2:40]):
        calls.clear()
        for kind, index in itertools.product(sp.KINDS_SELF, sp.INDICES):
            sp.lambda_components(p, kind, index, "helicity", _PHASES)
            sp.rho_components(p, kind, index, "helicity", _PHASES)
        for sign, index in itertools.product(("particle", "antiparticle"), sp.INDICES):
            sp.dirac_components(p, sign, index, "helicity", _PHASES)
        assert calls["ring"] == 1


# ---------------------------------------------------------------------------
# Xi built and asserted once per momentum, from the boost columns
# ---------------------------------------------------------------------------

def _fresh(p):
    """A new momentum object with p's components, none of its fields cached."""
    if isinstance(p, kin.MomentumBatch):
        return kin.make_momenta(p.px, p.py, p.pz, p.m)
    return kin.make_momentum(p.px, p.py, p.pz, p.m)


def _corrupt_boost(monkeypatch, side, rows=True):
    """Make the Xi assertion read Lambda + 0.1 sigma_x for the `side` boost,
    on the rows where `rows` is true, by shifting both off-diagonal column
    entries."""
    columns = kin._boost_columns

    def corrupted(p, which):
        (a, c), (b, d) = columns(p, which)
        if which != side:
            return (a, c), (b, d)
        shift = np.where(rows, 0.1, 0.0)
        return (a, c + shift), (b + shift, d)

    monkeypatch.setattr(kin, "_boost_columns", corrupted)


def _count_boost_columns(monkeypatch):
    calls = Counter()
    columns = kin._boost_columns

    def counted(p, which):
        calls[which] += 1
        return columns(p, which)

    monkeypatch.setattr(kin, "_boost_columns", counted)
    return calls


@pytest.mark.parametrize("side", ["R", "L"])
def test_xi_matrix_names_the_failing_boost(monkeypatch, moving, side):
    """A boost that Xi no longer intertwines raises, naming its side; the
    other side still passes."""
    _corrupt_boost(monkeypatch, side)
    for p in (_fresh(moving), _fresh(moving[4])):
        with pytest.raises(AmbiguousIntertwinerError, match=f"failed the {side} pair"):
            ops.xi_matrix(p)


def test_xi_matrix_raises_for_one_failing_row(monkeypatch, moving):
    bad = np.zeros(len(moving), dtype=bool)
    bad[17] = True
    _corrupt_boost(monkeypatch, "L", bad)
    with pytest.raises(AmbiguousIntertwinerError, match="failed the L pair"):
        ops.xi_matrix(_fresh(moving))
    monkeypatch.undo()
    assert ops.xi_matrix(_fresh(moving)).shape == (len(moving), 2, 2)


def test_xi_is_asserted_once_per_momentum(monkeypatch, moving):
    calls = _count_boost_columns(monkeypatch)
    for p in (_fresh(moving[3]), _fresh(moving)):
        calls.clear()
        first = ops.xi_matrix(p)
        assert calls == {"R": 1, "L": 1}
        second = ops.xi_matrix(p)
        ops.lambda_basis_transforms(p)
        assert calls == {"R": 1, "L": 1}
        assert second is first and second.tobytes() == first.tobytes()
        assert first.tobytes() == ops.xi_matrix(_fresh(p)).tobytes()


def test_xi_is_read_only(moving):
    for p in (moving[3], moving):
        xi = ops.xi_matrix(p)
        with pytest.raises(ValueError):
            xi[..., 0, 0] = 0.0


def test_slices_masks_and_reflections_assert_their_own_xi(monkeypatch, moving):
    """Each new momentum object builds and asserts Xi itself: once the
    boost is corrupted, every one raises although its parent's Xi is
    already cached."""
    p = _fresh(moving)
    xi = ops.xi_matrix(p)
    mask = np.arange(len(p)) % 3 == 0
    for part, rows in ((p[2:9], slice(2, 9)), (p[mask], mask)):
        assert ops.xi_matrix(part).tobytes() == np.ascontiguousarray(xi[rows]).tobytes()
    calls = _count_boost_columns(monkeypatch)
    for q in (p[2:9], p[mask], kin.parity_reflect(p)):
        calls.clear()
        ops.xi_matrix(q)
        assert calls == {"R": 1, "L": 1}
    monkeypatch.undo()
    _corrupt_boost(monkeypatch, "R")
    assert ops.xi_matrix(p) is xi
    for q in (p[2:9], p[mask], kin.parity_reflect(p)):
        with pytest.raises(AmbiguousIntertwinerError, match="failed the R pair"):
            ops.xi_matrix(q)


def _block_transforms(p):
    """The four transforms as the block forms the gather replaced."""
    phase = np.asarray(np.exp(1j * np.arctan2(p.py, p.px)))[..., None, None]
    xi = math.sqrt(2.0) * phase * ops.xi_matrix(p)
    z = np.zeros_like(xi)
    return [mat.blocks(xi, z, z, xi), mat.blocks(1j * xi, z, z, -1j * xi),
            mat.blocks(z, 1j * xi, 1j * xi, z), mat.blocks(z, xi, -xi, z)]


def test_lambda_basis_transforms_keep_the_block_bits(moving):
    """One gather gives the bits of the block forms, zero signs included, at
    one momentum and on a batch with rows on the axes (+-z among them)."""
    axes = [(0.0, 0.0, 2.0, 0.7), (0.0, 0.0, -2.0, 0.7), (-0.0, -0.0, 3.0, 1.0),
            (2.0, 0.0, 0.0, 1.0), (-2.0, 0.0, 0.0, 1.0), (0.0, 2.0, 0.0, 1.0),
            (0.0, -2.0, 0.0, 1.0), (-1.0, -0.0, 0.5, 1.0), (-1.0, 1e-300, 0.0, 1.0)]
    extra = np.array(axes).T
    batch = kin.make_momenta(*(np.concatenate([g, e]) for g, e in zip(
        (moving.px, moving.py, moving.pz, moving.m), extra)))
    assert np.count_nonzero(batch.p_perp2 == 0.0) >= 4
    for p in [batch, batch[-len(axes):]] + list(batch[::7]) + list(batch[-len(axes):]):
        got, want = ops.lambda_basis_transforms(p), _block_transforms(p)
        assert len(got) == 4
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == np.ascontiguousarray(w).tobytes()
