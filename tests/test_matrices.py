import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elko import matrices as mat
from elko import operators as ops
from elko import spin_one as s1
from elko import spinors as sp

from conftest import assert_same_bits


def test_mul_identity_and_pauli_involution():
    i2 = np.eye(2, dtype=complex)
    assert np.allclose(i2 @ mat.sigma_y, mat.sigma_y)
    assert np.allclose(mat.sigma_y @ mat.sigma_y, i2)


def test_adjoint_is_an_involution(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(mat.adjoint(mat.adjoint(a)), a)


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_adjoint_inverts_unitaries(rng, n):
    """The adjoint is the inverse of a unitary, one matrix or a stack, to
    rounding: the chain checks conjugate by it instead of inverting."""
    u = _random_unitary(rng, n)
    stack = np.stack([u, _random_unitary(rng, n)])
    for a in (u, stack):
        assert np.max(np.abs(mat.adjoint(a) @ a - np.eye(n))) <= 1e-14
        assert np.max(np.abs(mat.adjoint(a) - np.linalg.inv(a))) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_gamma_algebra_signature(seed):
    # anticommutators reproduce the metric, for any random probe vector
    rng = np.random.default_rng(seed)
    v = rng.normal(size=4)
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for mu in range(4):
        for nu in range(4):
            acom = mat.GAMMA[mu] @ mat.GAMMA[nu] + mat.GAMMA[nu] @ mat.GAMMA[mu]
            assert np.allclose(acom, 2 * eta[mu, nu] * np.eye(4))
    slashed = sum(float(v[k]) * eta[k, k] * mat.GAMMA[k] for k in range(4))
    p2 = v[0] ** 2 - v[1] ** 2 - v[2] ** 2 - v[3] ** 2
    assert np.allclose(slashed @ slashed, p2 * np.eye(4), atol=1e-10)


def test_gamma5_product_identity():
    assert np.allclose(1j * mat.gamma0 @ mat.gamma1 @ mat.gamma2 @ mat.gamma3, mat.gamma5)


def test_fixed_arrays_and_operator_matrices_are_read_only():
    """Every public array of ``matrices``, the rest patterns, the matrices of
    the fixed operators and the spin-1 chirality are read-only: an in-place
    write raises ``ValueError`` and changes no later result in the process."""
    exported = {name: value for name, value in vars(mat).items()
                if not name.startswith("_") and isinstance(value, (np.ndarray, tuple))}
    assert set(exported) == {"sigma_x", "sigma_y", "sigma_z", "gamma0", "gamma1", "gamma2",
                             "gamma3", "gamma5", "GAMMA", "theta_half", "theta_one",
                             "spin1_jx", "spin1_jy", "spin1_jz", "SPIN1_J"}
    fixed = [a for value in exported.values()
             for a in (value if isinstance(value, tuple) else (value,))]
    fixed += [*sp.REST_LAMBDA_PATTERNS.values(), *sp.REST_RHO_PATTERNS.values()]
    fixed += [op.matrix for op in (ops.parity_operator(), ops.chirality(), s1.sc_one(),
                                   s1.ss_one(), s1.gamma5_sc_one())]
    fixed.append(s1.gamma5_one())
    before = mat.gamma5.copy()
    for a in fixed:
        assert isinstance(a, np.ndarray) and not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 7
    assert_same_bits(mat.gamma5, before)
    assert_same_bits(ops.chirality().matrix, before)


@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("lead", [(), (2,)])
def test_matmat_is_matmul_bit_for_bit(rng, n, lead):
    def complex_normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    fixed, other = complex_normal(4, 4), complex_normal(4, 4)
    stack, stack2 = complex_normal(*lead, n, 4, 4), complex_normal(*lead, n, 4, 4)
    for a, b in ((fixed, stack), (stack, fixed), (stack, stack2), (fixed, other),
                 (fixed.conj().T, stack), (stack, fixed.conj().T), (mat.gamma5, stack)):
        got, want = mat.matmat(a, b), a @ b
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2, 4])
def test_rownorm_of_a_matrix_stack_with_no_rows(k):
    """A (0, k, k) stack has no rows to infer a row size from: its norms are
    a (0,) array, not a reshape error."""
    got = mat.rownorm(np.zeros((0, k, k), dtype=complex), matrix=True)
    assert got.shape == (0,)


def test_rownorm_of_a_matrix_stack_keeps_its_bits(rng):
    """Each matrix's Frobenius norm is the einsum of its interleaved real
    and imaginary parts read as one row, bit for bit."""
    x = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
    r = x.view(float).reshape(7, 32)
    want = np.sqrt(np.einsum("...i,...i->...", r, r))
    assert mat.rownorm(x, matrix=True).tobytes() == want.tobytes()
    assert mat.rownorm(x[2], matrix=True) == want[2]


def test_norms_of_single_precision_rows_read_their_own_parts():
    """A complex64 row is read as float32 parts, not as float64 words."""
    assert mat.sqnorm(np.array([[3 + 4j, 0]], dtype=np.complex64))[0] == 25.0
    assert mat.rownorm(np.array([[3 + 4j, 0]], dtype=np.complex64))[0] == 5.0
    assert mat.rownorm(np.ones((1, 2, 2), dtype=np.complex64), matrix=True)[0] == 2.0


_COMPONENTS = (0.0, -0.0, 5e-324, -5e-324, 1e-160, 0.6, -1.5)
_ROWS = np.array(list(itertools.product(_COMPONENTS, repeat=3)))


def test_pauli_dot_of_floats_is_its_row_of_the_array_call():
    """sigma . (x, y, z) of one vector's Python floats has the bits of its
    row of the (N,)-array call, zero signs and underflowed products
    included."""
    stack = mat.pauli_dot(*_ROWS.T)
    assert stack.shape == (len(_ROWS), 2, 2)
    for row, want in zip(_ROWS.tolist(), stack):
        got = mat.pauli_dot(*row)
        assert got.shape == (2, 2)
        assert_same_bits(got, want)


def test_spin1_dot_of_floats_is_its_row_of_the_array_call():
    """J . (x, y, z) of one vector's Python floats has the bits of its row of
    the (N,)-array call, and the rows have the bits of the generators
    weighted by the columns of the (N, 3) array, zero signs and underflowed
    products included."""
    stack = mat.spin1_dot(*_ROWS.T)
    x, y, z = (_ROWS[:, k, None, None] for k in range(3))
    assert_same_bits(stack, x * mat.spin1_jx + y * mat.spin1_jy + z * mat.spin1_jz)
    for row, want in zip(_ROWS.tolist(), stack):
        got = mat.spin1_dot(*row)
        assert got.shape == (3, 3)
        assert_same_bits(got, want)


def test_pauli_dot_squares_to_the_squared_norm(rng):
    """(sigma . n)^2 = |n|^2 1 for one vector and for rows."""
    rows = rng.normal(size=(50, 3))
    want = np.sum(rows * rows, axis=-1)[:, None, None] * np.eye(2)
    for sn, square in ((mat.pauli_dot(*rows.T), want),
                       (mat.pauli_dot(*rows[0].tolist()), want[0])):
        assert np.max(np.abs(sn @ sn - square)) <= 1e-14 * np.max(np.abs(square))


@pytest.mark.parametrize("k", [2, 3])
def test_block_diag2_of_a_stack_is_its_matrices_bit_for_bit(rng, k):
    """diag(a, b) of equal-length stacks is diag(a_i, b_i) row by row, bit
    for bit, and zero off the blocks."""
    def complex_normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, b = complex_normal(5, 2, 2), complex_normal(5, k, k)
    stack = mat.block_diag2(a, b)
    assert stack.shape == (5, 2 + k, 2 + k)
    for got, a_i, b_i in zip(stack, a, b):
        assert_same_bits(got, mat.block_diag2(a_i, b_i))
    assert_same_bits(stack[:, :2, 2:], np.zeros((5, 2, k), dtype=complex))
    assert_same_bits(stack[:, 2:, :2], np.zeros((5, k, 2), dtype=complex))
    assert_same_bits(stack[:, :2, :2], a)
    assert_same_bits(stack[:, 2:, 2:], b)
