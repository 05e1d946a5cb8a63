"""Factories for every spin-1/2 object: the self/anti-self charge-conjugate
lambda and rho bispinors (rest-frame and boosted, fixed-axis and
helicity-adapted), Dirac particle/antiparticle spinors, and helicity
2-spinors with configurable phases.

Conventions, fixed once here and relied on by the whole verification suite:

* chiral basis with the right-handed block on top (see ``matrices``);
* fixed-axis ("spinorial") family: diag(Lambda_R, Lambda_L) applied to the
  rest patterns with global phase exactly 1, read off as one column of
  E + m +- sigma.p per chiral block, in p_l, p_r and E +- pz + m;
* helicity family: lambda = boost((zeta Theta phi*, phi)) with zeta = +i for
  the self-conjugate kind and -i for the anti-self one; rho is built from a
  right-handed 2-spinor the same way with the opposite zeta;
* helicity 2-spinors
      phi_+ = e^{i theta1} (cos(t/2) e^{-i f/2},  sin(t/2) e^{i f/2})
      phi_- = e^{i theta2} (sin(t/2) e^{-i f/2}, -cos(t/2) e^{i f/2})
  chosen so the space-inversion images (t -> pi - t, f -> pi + f) satisfy
      R phi_-           = -i e^{i(theta2 - theta1)} phi_+
      R phi_+           = -i e^{i(theta1 - theta2)} phi_-
      R Theta (phi_-)*  = -i e^{-2 i theta2} phi_-
      R Theta (phi_+)*  = +i e^{-2 i theta1} phi_+
  identically in all angles and phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, check_finite, check_label
from .kinematics import (
    FourMomentum,
    _boost_columns,
    _helicity_ring,
    _ring_window,
    _sqrt,
    boost_eigenvalue,
    make_momentum,
)
from .matrices import column, gamma0, matrix2, matvec, read_only, vdot, vector

KINDS_SELF = ("S", "A")
INDICES = ("up", "down")
BASES = ("spinorial", "helicity")


@dataclass(frozen=True)
class PhaseConfig:
    """Free phases of the construction; all default to zero, and each must
    be finite (``DomainError`` otherwise).

    theta_c is the charge-conjugation phase; theta1/theta2 dress the +/-
    helicity 2-spinors.  The phase factors are derived fields, like a
    momentum's: each a ``cached_property``, computed on first use and kept
    with the configuration, which is immutable.
    """

    theta_c: float = 0.0
    theta1: float = 0.0
    theta2: float = 0.0

    def __post_init__(self):
        check_finite(theta_c=self.theta_c, theta1=self.theta1, theta2=self.theta2)

    @cached_property
    def factors(self):
        """(e^{i theta1}, e^{i theta2})."""
        return np.exp(1j * self.theta1), np.exp(1j * self.theta2)

    @cached_property
    def dressings(self):
        """For h = +1 and -1, the factors of a helicity rest spinor's four
        components with e = e^{i theta_h}: (e*, e*, e, e), the Wigner image
        on top (lambda), and (e, e, e*, e*), the image below (rho);
        read-only (4,) arrays."""
        return tuple(read_only(np.array([c, c, e, e]), np.array([e, e, c, c]))
                     for e, c in ((e, np.conj(e)) for e in self.factors))


# The kinds each family admits: a Dirac spinor's kind is its sign.
_FAMILY_KINDS = {"lambda": ("S", "A"), "rho": ("S", "A"), "u": ("particle",),
                 "v": ("antiparticle",)}


@dataclass(frozen=True)
class Bispinor:
    """Four complex components tagged with their construction labels:
    (4,) at a ``FourMomentum``, (N, 4) on a batch of N.

    A public construction checks every label and the components' shape.
    The factories build theirs with ``_labelled``, after checking the labels
    once themselves."""

    components: np.ndarray
    family: str            # lambda | rho | u | v
    kind: str              # S | A for lambda/rho, particle for u, antiparticle for v
    index: str             # up | down
    basis: str             # spinorial | helicity
    momentum: FourMomentum

    def __post_init__(self):
        check_label("family", self.family, _FAMILY_KINDS)
        check_label("kind", self.kind, _FAMILY_KINDS[self.family])
        check_label("index", self.index, INDICES)
        check_label("basis", self.basis, BASES)
        components = np.asarray(self.components, dtype=complex)
        shape = np.shape(self.momentum.m) + (4,)
        if components.shape != shape:
            raise DomainError(f"components of a spinor at this momentum must have shape "
                              f"{shape}, got {components.shape}")
        object.__setattr__(self, "components", components)


def _labelled(components, family, kind, index, basis, momentum) -> Bispinor:
    """A factory's ``Bispinor``: its complex components and labels set
    directly, without the dataclass ``__init__`` and the checks, which the
    factory has made already."""
    spinor = object.__new__(Bispinor)
    fields = spinor.__dict__
    fields["components"] = components
    fields["family"] = family
    fields["kind"] = kind
    fields["index"] = index
    fields["basis"] = basis
    fields["momentum"] = momentum
    return spinor


# ---------------------------------------------------------------------------
# rest frame
# ---------------------------------------------------------------------------

# Exact component patterns of the rest spinors; the physical spinor is the
# pattern times sqrt(m/2).
REST_LAMBDA_PATTERNS = {
    ("S", "up"): np.array([0, 1j, 1, 0], dtype=complex),
    ("S", "down"): np.array([-1j, 0, 0, 1], dtype=complex),
    ("A", "up"): np.array([0, -1j, 1, 0], dtype=complex),
    ("A", "down"): np.array([1j, 0, 0, 1], dtype=complex),
}

# rho^S_{up,down}(0) = (-i, +i) lambda^A_{down,up}(0);
# rho^A_{up,down}(0) = (+i, -i) lambda^S_{down,up}(0).
REST_RHO_PATTERNS = {
    ("S", "up"): -1j * REST_LAMBDA_PATTERNS[("A", "down")],
    ("S", "down"): 1j * REST_LAMBDA_PATTERNS[("A", "up")],
    ("A", "up"): 1j * REST_LAMBDA_PATTERNS[("S", "down")],
    ("A", "down"): -1j * REST_LAMBDA_PATTERNS[("S", "up")],
}

read_only(*REST_LAMBDA_PATTERNS.values(), *REST_RHO_PATTERNS.values())
_REST_PATTERNS = {"lambda": REST_LAMBDA_PATTERNS, "rho": REST_RHO_PATTERNS}


def _rest(family: str, kind: str, index: str, m: float) -> Bispinor:
    p = make_momentum(0, 0, 0, m)
    check_label("kind", kind, KINDS_SELF)
    check_label("index", index, INDICES)
    comps = math.sqrt(m / 2.0) * _REST_PATTERNS[family][(kind, index)]
    return Bispinor(comps, family, kind, index, "spinorial", p)


def rest_lambda(kind: str, index: str, m: float) -> Bispinor:
    """Rest-frame lambda spinor, sqrt(m/2) times an exact 0/±1/±i pattern."""
    return _rest("lambda", kind, index, m)


def rest_rho(kind: str, index: str, m: float) -> Bispinor:
    """Rest-frame rho spinor, defined through the rest lambdas."""
    return _rest("rho", kind, index, m)


# ---------------------------------------------------------------------------
# boosted fixed-axis (spinorial) spinors, read off the rest patterns
# ---------------------------------------------------------------------------
#
# Each chiral block of a rest pattern has one nonzero entry, a e_j above and
# b e_k below.  As sqrt(m/2) Lambda_{R,L} = c (E + m +- sigma.p) with
# c = 1/(2 sqrt(E + m)), the boosted spinor is c (a column j of E + m + sigma.p,
# b column k of E + m - sigma.p).  a and b are exact unit literals and a unit
# 1 multiplies nothing: a complex product can flip the sign of a zero part,
# which ``elko eval`` prints.  Each spinor is c times its own four
# (unit, column entry) products, and any number of spinors c times their
# products joined.

_UNITS = (1, 1j, -1, -1j)
# The six column entries of E + m +- sigma.p, (pp, p_r, p_l, pm, -p_r, -p_l):
# column j of E + m + sigma.p holds entries _COLUMNS[0][j], column k of
# E + m - sigma.p entries _COLUMNS[1][k].
_COLUMNS = (((0, 1), (2, 3)), ((3, 4), (5, 0)))


def _block_axis(block):
    (j,) = np.flatnonzero(block)
    return j, next(unit for unit in _UNITS if unit == block[j])


def _read_off(pattern):
    """The four (unit, column entry) products of a rest pattern's boosted
    spinor, in component order."""
    (j, a), (k, b) = _block_axis(pattern[:2]), _block_axis(pattern[2:])
    return tuple((a, e) for e in _COLUMNS[0][j]) + tuple((b, e) for e in _COLUMNS[1][k])


_PRODUCTS = {(family, *key): _read_off(pattern)
             for family, patterns in _REST_PATTERNS.items()
             for key, pattern in patterns.items()}


def boosted_patterns(p, products) -> np.ndarray:
    """c times (unit, column entry) products, one spinor's ``_PRODUCTS``
    tuple or k spinors' tuples joined: (4k,) at one momentum, (N, 4k) on a
    batch."""
    pp, pm, c = p.pattern_diagonal
    entries = (pp, p.p_r, p.p_l, pm, -p.p_r, -p.p_l)
    table = np.array([entries[e] if unit == 1 else unit * entries[e] for unit, e in products],
                     dtype=complex)
    table *= c
    return table.T


# ---------------------------------------------------------------------------
# helicity 2-spinors
# ---------------------------------------------------------------------------
#
# The momentum's zero-phase pair (phi_+, phi_-), held in its
# ``helicity_ring``, carries every helicity 2-spinor: phi_h with its phase
# is e^{i theta_h} phi_h, and its Wigner image is
# Theta (e^{i theta_h} phi_h)* = -h e^{-i theta_h} phi_{-h}, so the phases
# enter as scalars and no spinor takes a sine, a cosine or a matrix product
# of its own.  A rest spinor's two halves are one product of a window
# (phi_a, phi_b) of the momentum's ``helicity_ring`` with the
# configuration's ``dressings``.


def helicity_components(theta, phi, h: int, theta1=0.0, theta2=0.0) -> np.ndarray:
    """Unit-norm sigma.n eigen-2-spinor of eigenvalue h = +-1 at arbitrary
    finite angles (half-angle forms) with the finite phases theta1/theta2;
    (2,) for float angles and phases, (N, 2) for (N,) arrays."""
    check_label("h", h, (1, -1))
    check_finite(theta=theta, phi=phi, theta1=theta1, theta2=theta2)
    ring = _helicity_ring(np.cos(theta / 2.0), np.sin(theta / 2.0), phi)
    return column(np.exp(1j * (theta1 if h > 0 else theta2))) * _ring_window(ring, h, h)[..., :2]


def index_flip_unitary(phi, alpha, beta) -> np.ndarray:
    """The unitary connecting the two helicity 2-spinors; (2, 2) for float
    angles, (N, 2, 2) for (N,) arrays; every angle must be finite.

    U maps the +1 spinor (phase alpha) onto the -1 spinor (phase beta);
    its adjoint maps back.
    """
    check_finite(phi=phi, alpha=alpha, beta=beta)
    zero = np.zeros_like(phi)
    flip = matrix2(zero, np.exp(-1j * phi), -np.exp(1j * phi), zero)
    return np.asarray(np.exp(1j * (beta - alpha)))[..., None, None] * flip


# ---------------------------------------------------------------------------
# boosted spinors, both bases
# ---------------------------------------------------------------------------

_INDEX_TO_H = {"up": 1, "down": -1}

# zeta phases making boost((zeta Theta phi*, phi)) self (S) / anti-self (A)
# charge conjugate; rho uses the right-handed block and the opposite phases.
_ZETA = {"lambda": {"S": 1j, "A": -1j}, "rho": {"S": -1j, "A": 1j}}


def _dressed_halves(ring, family, kind, h, cfg):
    """(zeta Theta f*, f) (lambda) or (f, zeta Theta f*) (rho) for
    f = e^{i theta_h} phi_h, as one 4-vector (or (N, 4) rows), from a
    ``helicity_ring``.

    zeta Theta f* = -h zeta e* phi_{-h}: one product of the window
    (phi_{-h}, phi_h) or (phi_h, phi_{-h}) with the dressing (e*, e*, e, e)
    or (e, e, e*, e*), then -h zeta on the image half.  (-zeta) y is
    zeta (-y) bit for bit, so the sign rides on zeta."""
    lam = family == "lambda"
    top = -h if lam else h
    halves = cfg.dressings[h < 0][not lam] * _ring_window(ring, top, -top)
    zeta = _ZETA[family][kind]
    image = halves[..., :2] if lam else halves[..., 2:]
    image *= -zeta if h > 0 else zeta
    return halves


def _components(family, p, kind, index, basis, cfg) -> np.ndarray:
    check_label("kind", kind, KINDS_SELF)
    check_label("index", index, INDICES)
    check_label("basis", basis, BASES)
    if basis == "spinorial":
        return boosted_patterns(p, _PRODUCTS[family, kind, index])
    h = _INDEX_TO_H[index]
    s = -h if family == "lambda" else h   # the blocks' sigma.p-hat eigenvalue
    spinor = _dressed_halves(p.helicity_ring, family, kind, h, cfg)   # the rest spinor / sqrt(m/2)
    spinor *= column(_sqrt(p.m / 2.0))
    spinor *= column(boost_eigenvalue(p, s))
    return spinor


def lambda_components(p, kind: str, index: str, basis: str = "spinorial",
                      cfg: PhaseConfig = PhaseConfig()) -> np.ndarray:
    """Components of the boosted lambda spinor: (4,) at one momentum,
    (N, 4) on a batch.

    The spinorial basis uses the fixed-axis closed forms.  The helicity
    basis is built on the sigma.n eigen-2-spinor of p's direction (index
    up <-> h = +1); both chiral blocks of lambda(0) then have sigma.p-hat
    eigenvalue -h, so the boost acts on lambda(0) as the single factor
    (E + m - h |p|) / sqrt(2 m (E + m)).
    """
    return _components("lambda", p, kind, index, basis, cfg)


def rho_components(p, kind: str, index: str, basis: str = "spinorial",
                   cfg: PhaseConfig = PhaseConfig()) -> np.ndarray:
    """Components of the boosted rho spinor; in the helicity basis both
    blocks of rho(0) have eigenvalue +h, so the boost factor is
    (E + m + h |p|) / sqrt(2 m (E + m))."""
    return _components("rho", p, kind, index, basis, cfg)


def dirac_components(p, sign: str, index: str, basis: str = "spinorial",
                     cfg: PhaseConfig = PhaseConfig()) -> np.ndarray:
    """Components of the Dirac particle/antiparticle spinor, normalised to
    u-bar u = 2m: sqrt(m) (Lambda_R f, +-Lambda_L f).

    f is a fixed-axis J_z eigenvector (spinorial; Lambda f is then a column
    of the boost) or the sigma.n eigenvector of p's direction (helicity;
    Lambda f is then a multiple of f).
    """
    check_label("sign", sign, ("particle", "antiparticle"))
    check_label("index", index, INDICES)
    check_label("basis", basis, BASES)
    s = 1.0 if sign == "particle" else -1.0
    sm = _sqrt(p.m)
    if basis == "spinorial":
        col = 0 if index == "up" else 1
        right, left = _boost_columns(p, "R")[col], _boost_columns(p, "L")[col]
        # the column entries and their scales in one array, multiplied half by half
        parts = vector(*right, *left, sm, sm, s * sm, s * sm)
        return parts[..., :4] * parts[..., 4:]
    h = _INDEX_TO_H[index]
    upper, lower = sm * boost_eigenvalue(p, h), s * sm * boost_eigenvalue(p, -h)
    spinor = cfg.factors[h < 0] * _ring_window(p.helicity_ring, h, h)   # (f, f)
    spinor *= np.array([upper, upper, lower, lower]).T
    return spinor


def lambda_spinor(p: FourMomentum, kind: str, index: str,
                  basis: str = "spinorial", cfg: PhaseConfig = PhaseConfig()) -> Bispinor:
    """Boosted lambda spinor at one momentum (see ``lambda_components``)."""
    return _labelled(_components("lambda", p, kind, index, basis, cfg),
                     "lambda", kind, index, basis, p)


def rho_spinor(p: FourMomentum, kind: str, index: str,
               basis: str = "spinorial", cfg: PhaseConfig = PhaseConfig()) -> Bispinor:
    """Boosted rho spinor (second self/anti-self conjugate family)."""
    return _labelled(_components("rho", p, kind, index, basis, cfg),
                     "rho", kind, index, basis, p)


def dirac_spinor(p: FourMomentum, sign: str, index: str,
                 basis: str = "spinorial", cfg: PhaseConfig = PhaseConfig()) -> Bispinor:
    """Dirac particle/antiparticle spinor at one momentum (see
    ``dirac_components``)."""
    spinor = dirac_components(p, sign, index, basis, cfg)
    return _labelled(spinor, "u" if sign == "particle" else "v", sign, index, basis, p)


def chiral_helicity_sign(family: str, index: str) -> int:
    """Sign of the chiral-helicity eigenvalue (in units of 1/2) carried by a
    helicity-family spinor.

    The lambda labels align with the eigenvalue (up -> +1/2); the rho family,
    being +-i times the index-flipped anti-family, anti-aligns (up -> -1/2).
    """
    check_label("family", family, ("lambda", "rho"))
    check_label("index", index, INDICES)
    sign = 1 if index == "up" else -1
    return sign if family == "lambda" else -sign


def bar_product(a, b):
    """Lorentz-invariant pairing a-bar b = a^dagger gamma0 b; a complex for
    two spinors, an (N,) array when either is (N, 4) rows (one spinor pairs
    with each row, in either order)."""
    # a's rows in C order (a batch's rows are column-major views): each row's
    # four products are then summed as that row's own call sums them
    av = np.ascontiguousarray(a.components if isinstance(a, Bispinor) else a, dtype=complex)
    bv = b.components if isinstance(b, Bispinor) else np.asarray(b, dtype=complex)
    if isinstance(a, Bispinor) and isinstance(b, Bispinor):
        if not all(np.array_equal(getattr(a.momentum, f), getattr(b.momentum, f))
                   for f in ("px", "py", "pz", "m")):
            raise DomainError("bar_product requires both spinors at the same momentum")
    pairing = vdot(av, matvec(gamma0, bv))
    return complex(pairing) if pairing.ndim == 0 else pairing
