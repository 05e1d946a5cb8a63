"""Dense complex matrix arithmetic for the small fixed shapes used everywhere.

A ``CMatrix`` is a 2-d ``numpy.ndarray`` of ``complex128``.  This module
owns ``read_only``, the package's one read-only rule, and the read-only
constants: Pauli matrices, the chiral-basis gamma matrices (right-handed
block on top), the spin-1/2 and spin-1 Wigner matrices and the spin-1
angular-momentum generators in the spherical basis (J_z = diag(1, 0, -1)).

The helpers ``vector``, ``matrix2``, ``pauli_dot`` and ``spin1_dot`` (of x,
y, z), ``column``, ``matvec``, ``matmat``, ``rownorm``, ``blocks``,
``block_diag2`` and ``adjoint`` (the inverse of a unitary) work on one
object or on a batch: a leading axis of length N in front of the trailing
vector/matrix axes, so one kernel body serves one momentum (float entries)
and N ((N,) array entries).
"""

from __future__ import annotations

import numpy as np

CMatrix = np.ndarray


def read_only(*arrays):
    """The arguments, each array among them made read-only; one is returned bare."""
    for x in arrays:
        if isinstance(x, np.ndarray):
            x.setflags(write=False)
    return arrays[0] if len(arrays) == 1 else arrays


# ---------------------------------------------------------------------------
# fixed matrices
# ---------------------------------------------------------------------------

sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
sigma_y = np.array([[0, -1j], [1j, 0]], dtype=complex)
sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)

_I2, _Z2 = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)

# Chiral basis with the right-handed 2-spinor in the upper block:
# gamma5 = diag(I, -I), gamma^i = [[0, -sigma_i], [sigma_i, 0]].
gamma0 = np.block([[_Z2, _I2], [_I2, _Z2]])
gamma1 = np.block([[_Z2, -sigma_x], [sigma_x, _Z2]])
gamma2 = np.block([[_Z2, -sigma_y], [sigma_y, _Z2]])
gamma3 = np.block([[_Z2, -sigma_z], [sigma_z, _Z2]])
gamma5 = np.block([[_I2, _Z2], [_Z2, -_I2]])
GAMMA = (gamma0, gamma1, gamma2, gamma3)

# Wigner time-reversal matrix for spin 1/2: Theta sigma Theta^-1 = -sigma*.
theta_half = -1j * sigma_y

# Spin-1 generators, spherical basis (highest weight first).
spin1_jx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
spin1_jy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)
spin1_jz = np.diag([1.0, 0.0, -1.0]).astype(complex)
SPIN1_J = (spin1_jx, spin1_jy, spin1_jz)

# Spin-1 Wigner matrix: antidiagonal (1, -1, 1) flip, real orthogonal
# symmetric, squares to +1; Theta J Theta^-1 = -J*.
theta_one = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
read_only(_I2, _Z2, sigma_x, sigma_y, sigma_z, *GAMMA, gamma5, theta_half, *SPIN1_J, theta_one)


def vector(*parts) -> np.ndarray:
    """Complex vector from its components: (k,) for scalar parts, (N, k) for
    (N,) parts."""
    return np.array(parts, dtype=complex).T


def matrix2(a, b, c, d) -> CMatrix:
    """[[a, b], [c, d]]: (2, 2) for scalar entries, (N, 2, 2) for (N,) ones."""
    # .T reverses every axis, so listing the entries transposed puts the
    # batch axis first and the matrix axes back in order.
    return np.array([[a, c], [b, d]], dtype=complex).T


def column(x):
    """A scalar or (N,) factor shaped to scale (k,) or (N, k) vectors: an
    array gains a trailing axis, a scalar scales as it is."""
    return x[..., None] if isinstance(x, np.ndarray) else x


def matvec(a, x) -> np.ndarray:
    """a @ x over any leading batch axes of either operand.  A fixed (k, k)
    matrix acts on all rows of x as one product x @ a.T; a stack of
    matrices acts row by row."""
    if a.ndim == 2:
        return x @ a.T
    return (a @ x[..., None])[..., 0]


def matmat(a, b) -> CMatrix:
    """a @ b over any leading batch axes of either operand.  A fixed 2-d
    matrix times a stack, on either side, is one 2-d product over all the
    stack's rows or columns; two stacks multiply matrix by matrix."""
    if a.ndim == 2 and b.ndim > 2:
        cols = np.moveaxis(b, -2, 0)
        out = a @ cols.reshape(len(cols), -1)
        return np.moveaxis(out.reshape(a.shape[:1] + cols.shape[1:]), 0, -2)
    if b.ndim == 2 and a.ndim > 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[1:])
    return a @ b


def vdot(a, b):
    """a^dagger b over the last axis, row by row over any leading axes."""
    return np.sum(np.conj(a) * b, axis=-1)


def sqnorm(x):
    """|x|^2 over the last axis of an array of any layout, row by row over the
    leading axes, as one real dot product per row (of the interleaved real and
    imaginary parts for a complex x): for a real row the dot product under
    ``np.linalg.norm(row)``, bit for bit, which ``norm(x, axis=-1)`` is not."""
    r = np.ascontiguousarray(x)
    r = r.view(r.real.dtype) if r.dtype.kind == "c" else r
    return (r[..., None, :] @ r[..., :, None])[..., 0, 0]


def rownorm(x, matrix: bool = False):
    """|x| over the last axis of a vector array, or the Frobenius norm over
    the last two of a matrix array (``matrix=True``), row by row over the
    leading axes: one real dot per row over the interleaved real and
    imaginary parts, through ``einsum`` (on a batch it is faster than the
    per-row BLAS dot of ``sqnorm``, which the sampler keeps for its
    bit-exact draws)."""
    r = np.ascontiguousarray(x)
    r = r.view(r.real.dtype) if r.dtype.kind == "c" else r
    if matrix:
        r = r.reshape(r.shape[:-2] + (r.shape[-2] * r.shape[-1],))
    return np.sqrt(np.einsum("...i,...i->...", r, r))


def pauli_dot(x, y, z) -> CMatrix:
    """sigma . (x, y, z): (2, 2) for scalar components, (N, 2, 2) for (N,) ones."""
    return matrix2(z, x - 1j * y, x + 1j * y, -z)


def spin1_dot(x, y, z) -> CMatrix:
    """J . (x, y, z) with the spherical-basis spin-1 generators: (3, 3) for
    scalar components, (N, 3, 3) for (N,) ones."""
    x, y, z = (np.asarray(c)[..., None, None] for c in (x, y, z))
    return x * spin1_jx + y * spin1_jy + z * spin1_jz


def block_diag2(a: CMatrix, b: CMatrix) -> CMatrix:
    """diag(a, b) for square blocks with equal leading batch axes."""
    n, k = a.shape[-1], b.shape[-1]
    out = np.zeros(a.shape[:-2] + (n + k, n + k), dtype=complex)
    out[..., :n, :n] = a
    out[..., n:, n:] = b
    return out


def blocks(a, b, c, d) -> CMatrix:
    """The block matrix [[a, b], [c, d]] of equal square blocks, over any
    leading batch axes."""
    n = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n], out[..., :n, n:] = a, b
    out[..., n:, :n], out[..., n:, n:] = c, d
    return out


def adjoint(a) -> CMatrix:
    """Conjugate transpose of a matrix or of each matrix in a batch."""
    return np.conj(np.swapaxes(np.asarray(a, dtype=complex), -1, -2))
