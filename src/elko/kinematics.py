"""On-shell four-momenta, parity reflection and the spin-1/2 / spin-1 boosts.

Metric signature (+,-,-,-): gamma^mu p_mu = gamma0 E - gamma . p.  Boost
rapidity is arccosh(E/m) along n = p/|p|; at |p| = 0 every boost is the
identity by continuity.

A ``MomentumBatch`` holds N momenta as (N,) arrays and a ``FourMomentum``
one momentum as floats; both expose the same fields, and the spin-1/2
kernels (derived fields, ``boost_half``, ``boost_half_pair``,
``boost_eigenvalue``) and the spin-1 ``boost_one`` are written once as
plain arithmetic that accepts either.  A momentum's derived fields are
computed once, on first use, and kept with the immutable momentum object.
Among them are the helicity frame ``half_angles``, (cos(theta/2),
sin(theta/2), phi), and the conjugation intertwiner Xi of its two boosts
(``operators.xi_matrix``), which is asserted when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TOLERANCES
from .errors import (AmbiguousIntertwinerError, DimensionError, DirectionUndefinedError,
                     DomainError, check_label)
from .matrices import CMatrix, block_diag2, matrix2, spin1_dot, sqnorm, vector


_TWO_PI = 2 * math.pi


def _sqrt(x):
    # both are correctly rounded; math.sqrt keeps one momentum a Python float
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _fold_azimuth(phi):
    """An atan2 angle folded onto [0, 2 pi); floats or (N,) arrays.

    A tiny negative angle, e.g. atan2(-1e-17, 1), folds to a value that
    rounds to 2 pi; the second fold maps that value onto 0.0 and leaves
    every value below 2 pi as it is.
    """
    return phi % _TWO_PI % _TWO_PI


def _light_cone(E, pz, m, pperp2):
    """(E + pz, E - pz), np.float64 scalars for one momentum; the cancelling
    one is formed as (m^2 + p_perp^2) / (E + |pz|), the other as E + |pz|."""
    far = E + abs(pz)
    near = (m * m + pperp2) / far
    return np.where(pz < 0, near, far)[()], np.where(pz > 0, near, far)[()]


def _read_only(*fields):
    """The fields with every array among them made read-only, like a
    batch's own arrays; one field is returned bare."""
    for x in fields:
        if isinstance(x, np.ndarray):
            x.setflags(write=False)
    return fields[0] if len(fields) == 1 else fields


class _field:
    """A derived field, computed on first read and stored in the instance
    ``__dict__`` under its own name.  As a non-data descriptor it is found
    only while that entry is missing, so every later read is a plain
    attribute lookup.  ``functools.cached_property`` does the same, but up
    to Python 3.11 it takes a lock on each first read, which costs more than
    many of the fields themselves.  Without the lock, threads that read a
    missing field at once may each compute it; the computation is a pure
    function of the immutable object, so the values stored are equal, bit
    for bit."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class _OnShell:
    """Derived fields of (px, py, pz, m, E): floats for one momentum,
    read-only (N,) arrays for a batch.  Each is a ``_field``: computed on
    first use and kept in the momentum object's ``__dict__``.  The momentum
    is immutable, so a field cannot go stale, and a slice, a mask or a
    reflection (a new object) computes its own."""

    @_field
    def p_r(self):
        return _read_only(self.px + 1j * self.py)

    @_field
    def p_l(self):
        return _read_only(self.px - 1j * self.py)

    @_field
    def p_perp2(self):
        return _read_only(self.px * self.px + self.py * self.py)

    @_field
    def p_abs(self):
        return _read_only(_sqrt(self.px * self.px + self.py * self.py + self.pz * self.pz))

    @_field
    def half_angles(self):
        """(cos(theta/2), sin(theta/2), phi) of the direction, phi in
        [0, 2 pi); (1, 0, 0) at rest.

        The half-angle cosines are sqrt((|p| +- pz) / (2 |p|)) with the
        cancelling sum formed as p_perp^2 / (|p| + |pz|): arccos(pz/|p|)
        would lose digits near the z axis, where the helicity spinors must
        still be sigma.p-hat eigenvectors to full precision."""
        return _read_only(*_half_angles(self))

    @_field
    def helicity_ring(self):
        """(phi_+, phi_+, phi_-, phi_-, phi_+) in one array, (10,) at one
        momentum, (N, 10) on a batch, for the sigma.p-hat eigen-2-spinors
        phi_+- of eigenvalue +-1 at zero phases, read off ``half_angles``:
        each concatenation (phi_a, phi_b) that a helicity spinor reads is
        one window of it (``_ring_window``)."""
        return _read_only(_helicity_ring(*self.half_angles))

    @_field
    def xi(self):
        """Xi = diag(1, e^{-2 i phi}) / sqrt(2), asserted against both
        boosts; (2, 2) at one momentum, (N, 2, 2) on a batch.  See
        ``operators.xi_matrix``."""
        return _read_only(_xi(self))

    @_field
    def boost_norm(self):
        """sqrt(2 m (E + m)), the denominator of the spin-1/2 boosts."""
        return _read_only(_sqrt(2.0 * self.m * (self.E + self.m)))

    @_field
    def boost_off_diagonal(self):
        """(c p_r, c p_l, -c p_r, -c p_l) with c = 1 / sqrt(2 m (E + m)):
        the off-diagonal entries of Lambda_R, then of Lambda_L; complex
        scalars at one momentum, read-only (N,) arrays on a batch.  They
        are numpy's complex products at one momentum too, because Python's
        product rounds some zero parts to the other sign, and a row of a
        batch keeps the bits of its one-momentum call (as in
        ``operators.u1``)."""
        c = 1.0 / self.boost_norm
        pr, pl = self.p_r, self.p_l
        return tuple(_read_only(np.multiply([c, c, -c, -c], (pr, pl, pr, pl))))

    @_field
    def pattern_diagonal(self):
        """(E + pz + m, E - pz + m, c = 1 / (2 sqrt(E + m))): the diagonal
        of E + m + sigma.p and the scale c with sqrt(m/2) Lambda_{R,L} =
        c (E + m +- sigma.p), from which the spinorial closed forms are read."""
        return _read_only(self.E + self.pz + self.m, self.E - self.pz + self.m,
                          1.0 / (2.0 * _sqrt(self.E + self.m)))

    @property
    def p_plus(self):
        return _light_cone(self.E, self.pz, self.m, self.p_perp2)[0]

    @property
    def p_minus(self):
        return _light_cone(self.E, self.pz, self.m, self.p_perp2)[1]

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.px, self.py, self.pz]).T

    def direction(self) -> np.ndarray:
        return np.array(_unit(self)).T


@dataclass(frozen=True)
class FourMomentum(_OnShell):
    """On-shell momentum; E is derived from (px, py, pz, m)."""

    px: float
    py: float
    pz: float
    m: float
    E: float


@dataclass(frozen=True)
class MomentumBatch(_OnShell):
    """N on-shell momenta as read-only (N,) float arrays.

    ``len`` is N; iterating or indexing with an integer yields
    ``FourMomentum`` rows, indexing with a slice or a mask yields a smaller
    batch.  Every batch makes its five arrays read-only when it is built.
    """

    px: np.ndarray
    py: np.ndarray
    pz: np.ndarray
    m: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        _read_only(self.px, self.py, self.pz, self.m, self.E)

    def __len__(self) -> int:
        return len(self.m)

    def __iter__(self):
        for row in zip(*(a.tolist() for a in (self.px, self.py, self.pz, self.m, self.E))):
            yield FourMomentum(*row)

    def __getitem__(self, i):
        fields = (self.px[i], self.py[i], self.pz[i], self.m[i], self.E[i])
        if np.ndim(fields[0]) == 0:
            return FourMomentum(*(float(x) for x in fields))
        return MomentumBatch(*fields)


def make_momentum(px: float, py: float, pz: float, m: float) -> FourMomentum:
    """On-shell four-momentum with E = sqrt(p^2 + m^2); requires m > 0 and
    a finite E, which rejects NaN and infinite components and masses (and
    |p| or m so large that E overflows)."""
    if not m > 0.0:
        raise DomainError(f"mass must be positive, got {m}")
    E = math.sqrt(px * px + py * py + pz * pz + m * m)
    if not math.isfinite(E):
        raise DomainError(f"momentum and mass must be finite, got ({px}, {py}, {pz}), m = {m}")
    return FourMomentum(float(px), float(py), float(pz), float(m), E)


def make_momenta(px, py, pz, m) -> MomentumBatch:
    """N on-shell momenta from (N,) component and mass arrays (scalars
    broadcast); the same rules and the same E, row by row, as
    ``make_momentum``."""
    px, py, pz, m = (np.array(x, dtype=float)
                     for x in np.broadcast_arrays(px, py, pz, m))
    if px.ndim != 1:
        raise DimensionError(f"momentum batch needs 1-d arrays, got shape {px.shape}")
    return _validated(px, py, pz, m)


def _validated(px, py, pz, m) -> MomentumBatch:
    """The batch of (N,) float arrays that it takes over without copying,
    after the mass and finiteness checks of ``make_momenta``."""
    if not np.all(m > 0.0):
        raise DomainError(f"mass must be positive, got {m[~(m > 0.0)][0]}")
    E = np.sqrt(px * px + py * py + pz * pz + m * m)
    if not np.all(np.isfinite(E)):
        raise DomainError("momentum and mass must be finite")
    return MomentumBatch(px, py, pz, m, E)


def as_batch(momenta) -> MomentumBatch:
    """A batch from a batch or an iterable of momenta; E is carried over,
    not recomputed."""
    if isinstance(momenta, MomentumBatch):
        return momenta
    rows = np.array([(p.px, p.py, p.pz, p.m, p.E) for p in momenta], dtype=float).reshape(-1, 5)
    return MomentumBatch(*rows.T)


def sample_momenta(rng: np.random.Generator, n: int) -> MomentumBatch:
    """n random on-shell momenta: mass log-uniform in [0.1, 10], |p|
    uniform in [0, 10 m], direction uniform over the whole sphere.

    The n rows are drawn as one block: ``rng.random(n)`` for the masses,
    ``rng.normal(size=(n, 3))`` for the directions and ``rng.random(n)``
    for |p|.
    """
    lo, hi = np.log(0.1), np.log(10.0)
    u, g, v = rng.random(n), rng.normal(size=(n, 3)), rng.random(n)
    m = np.exp(lo + (hi - lo) * u)
    direction = g / np.sqrt(sqnorm(g))[:, None]
    # (3, n) C-ordered: three fresh contiguous rows for the batch to keep
    px, py, pz = np.multiply(direction.T, (10.0 * m) * v, order="C")
    return _validated(px, py, pz, m)


def _unit(p):
    """The components of p's direction, floats or (N,) arrays; raises at
    rest."""
    pabs = p.p_abs
    if np.count_nonzero(pabs == 0.0):
        raise DirectionUndefinedError("momentum direction undefined at |p| = 0")
    return p.px / pabs, p.py / pabs, p.pz / pabs


def _half_angles(p):
    pabs = p.p_abs
    at_rest = pabs == 0.0
    far = pabs + abs(p.pz)
    near = p.p_perp2 / (far + at_rest)
    two_p = 2.0 * pabs + at_rest
    cos_half = _sqrt((np.where(p.pz < 0, near, far) + at_rest) / two_p)
    sin_half = _sqrt(np.where(p.pz > 0, near, far) / two_p)
    # rest rows are moved onto +x so that phi = 0
    return cos_half, sin_half, _fold_azimuth(np.arctan2(p.py, p.px + at_rest))


def _helicity_ring(cos_half, sin_half, phi):
    """The pair (phi_+, phi_-) of the direction (theta, phi) from
    cos(theta/2), sin(theta/2) and phi, at zero phases:

        phi_+ = (cos(t/2) e^{-i f/2},  sin(t/2) e^{i f/2})
        phi_- = (sin(t/2) e^{-i f/2}, -cos(t/2) e^{i f/2})

    laid out as (phi_+, phi_+, phi_-, phi_-, phi_+): (10,) for floats,
    (N, 10) for (N,) arrays.  Its windows of four entries are the four
    concatenations (phi_a, phi_b), see ``_ring_window``.  The Wigner images
    of the pair are Theta phi_+* = -phi_- and Theta phi_-* = phi_+.
    """
    ep = np.exp(0.5j * phi)
    # e^{-i phi/2}, bit for bit but for the sign of a zero imaginary part
    # at phi = -0.0, which half_angles never returns
    em = np.conj(ep)
    plus, minus = (cos_half * em, sin_half * ep), (sin_half * em, -cos_half * ep)
    return vector(*plus, *plus, *minus, *minus, *plus)


def _ring_window(ring, a: int, b: int):
    """(phi_a, phi_b) for a, b = +-1, a view of four entries of a
    ``_helicity_ring``: ++ starts at 0, +- at 2, -- at 4 and -+ at 6."""
    start = 4 * (a < 0) + 2 * (a != b)
    return ring[..., start:start + 4]


def parity_reflect(p):
    """(E, p) -> (E, -p); an exact involution, row by row on a batch."""
    return type(p)(-p.px, -p.py, -p.pz, p.m, p.E)


def boost_half(p, side: str) -> CMatrix:
    """Right/left-handed 2x2 boost from rest to p; (N, 2, 2) on a batch.

    Lambda_R = (E + m + sigma.p) / sqrt(2 m (E + m)) and Lambda_L likewise
    with -sigma.p; both are Hermitian positive with det = 1, and
    Lambda_L = Lambda_R^-1.
    """
    (a, c), (b, d) = _boost_columns(p, side)
    return matrix2(a, b, c, d)


def _boost_columns(p, side: str):
    """The two columns of ``boost_half(p, side)``, each as its pair of
    entries (floats and complexes, or (N,) arrays): a spinor that keeps one
    column reads it here, without the 2x2 matrix."""
    check_label("side", side, ("R", "L"))
    s = 1.0 if side == "R" else -1.0
    c = 1.0 / p.boost_norm
    em = p.E + p.m
    k = 0 if side == "R" else 2
    below, above = p.boost_off_diagonal[k:k + 2]
    return ((em + s * p.pz) * c, below), (above, (em - s * p.pz) * c)


# Xi = (FIXED + e^{-2 i phi} TWIST) / sqrt(2)
_XI_FIXED = np.diag([1.0, 0.0]).astype(complex)
_XI_TWIST = np.diag([0.0, 1.0]).astype(complex)


def _xi(p):
    """The pinned intertwiner of ``operators.xi_matrix``, with its residual
    asserted on every row for both boosts."""
    if np.count_nonzero(p.p_abs == 0.0):
        raise DirectionUndefinedError("xi_matrix needs a momentum direction")
    twist = np.asarray(np.exp(-2j * np.arctan2(p.py, p.px)))[..., None, None]
    xi = math.sqrt(0.5) * (_XI_FIXED + twist * _XI_TWIST)
    for side in ("R", "L"):
        resid, norm = _intertwiner_residual(xi, p, side)
        if np.count_nonzero(resid > TOLERANCES["intertwiner"] * 2.0 * norm):
            raise AmbiguousIntertwinerError(
                2, f"pinned intertwiner failed the {side} pair at p = {p}")
    return xi


def _intertwiner_residual(xi, p, side: str):
    """(|Xi Lambda - Lambda^* Xi|, |Lambda|), Frobenius norms row by row,
    for a diagonal Xi and the ``_boost_columns`` of Lambda = boost_half(p, side).

    The residual's entries are d_i Lambda_ij - Lambda^*_ij d_j, d = diag(Xi).
    The diagonal of a boost is real, so its two terms cancel exactly, and
    two off-diagonal terms remain.
    """
    d0, d1 = xi[..., 0, 0], xi[..., 1, 1]
    (a, c), (b, e) = _boost_columns(p, side)
    upper, lower = d0 * b - b.conjugate() * d1, d1 * c - c.conjugate() * d0
    return (_sqrt(abs(upper) ** 2 + abs(lower) ** 2),
            _sqrt(a * a + e * e + abs(b) ** 2 + abs(c) ** 2))


def boost_eigenvalue(p, s: int):
    """Eigenvalue of Lambda_R on a sigma.p-hat eigen-2-spinor with eigenvalue
    s = +-1; Lambda_L has the one of -s.

    (E + m + s |p|) / sqrt(2 m (E + m)), with E + m - |p| formed as
    m + m^2 / (E + |p|) so that it does not cancel at large boosts.
    """
    pabs = p.p_abs
    num = p.E + p.m + pabs if s > 0 else p.m + p.m * p.m / (p.E + pabs)
    return num / p.boost_norm


def boost_half_pair(p) -> CMatrix:
    """Block-diagonal boost diag(Lambda_R, Lambda_L) acting on bispinors;
    (N, 4, 4) on a batch."""
    return block_diag2(boost_half(p, "R"), boost_half(p, "L"))


def boost_one(p, side: str) -> CMatrix:
    """3x3 boost exp(+-(J.n) arccosh(E/m)) for the spin-1 blocks; (N, 3, 3)
    on a batch.

    (J.n)^3 = J.n closes the series to 1 +- (J.n) sinh + (J.n)^2 (cosh - 1);
    with sinh = |p|/m and cosh - 1 = |p|^2/(m (E + m)) that is
    1 +- (J.p)/m + (J.p)^2/(m (E + m)), the identity at rest.
    """
    check_label("side", side, ("R", "L"))
    s = 1.0 if side == "R" else -1.0
    k = spin1_dot(p.vec)
    m = np.asarray(p.m)[..., None, None]
    em = np.asarray(p.E + p.m)[..., None, None]
    return np.eye(3) + k * (s / m) + (k @ k) / (m * em)
