import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elko import matrices as mat


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
