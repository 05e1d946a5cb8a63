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

import numpy as np

from .errors import DomainError
from .kinematics import (
    FourMomentum,
    _sqrt,
    boost_eigenvalue,
    boost_half,
    boost_half_pair,
    half_angles,
    make_momentum,
)
from .matrices import column, gamma0, matrix2, matvec, theta_half, vdot, vector

FAMILIES = ("lambda", "rho", "u", "v")
KINDS_SELF = ("S", "A")
INDICES = ("up", "down")
BASES = ("spinorial", "helicity")


@dataclass(frozen=True)
class PhaseConfig:
    """Free phases of the construction; all default to zero.

    theta_c is the charge-conjugation phase; theta1/theta2 dress the +/-
    helicity 2-spinors.
    """

    theta_c: float = 0.0
    theta1: float = 0.0
    theta2: float = 0.0


@dataclass(frozen=True)
class Bispinor:
    """Four complex components tagged with their construction labels."""

    components: np.ndarray
    family: str            # lambda | rho | u | v
    kind: str              # S | A for lambda/rho, particle | antiparticle for u/v
    index: str             # up | down
    basis: str             # spinorial | helicity
    momentum: FourMomentum

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        _check_basis(self.basis)
        if self.index not in INDICES:
            raise DomainError(f"unknown index {self.index!r}")
        object.__setattr__(self, "components", np.asarray(self.components, dtype=complex))


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

_REST_PATTERNS = {"lambda": REST_LAMBDA_PATTERNS, "rho": REST_RHO_PATTERNS}


def _check_kind_index(kind: str, index: str):
    if kind not in KINDS_SELF:
        raise DomainError(f"kind must be 'S' or 'A', got {kind!r}")
    if index not in INDICES:
        raise DomainError(f"index must be 'up' or 'down', got {index!r}")


def _check_basis(basis: str):
    if basis not in BASES:
        raise DomainError(f"unknown basis {basis!r}")


def _rest(family: str, kind: str, index: str, m: float) -> Bispinor:
    _check_kind_index(kind, index)
    if not m > 0.0:
        raise DomainError(f"mass must be positive, got {m}")
    comps = math.sqrt(m / 2.0) * _REST_PATTERNS[family][(kind, index)]
    return Bispinor(comps, family, kind, index, "spinorial", make_momentum(0, 0, 0, m))


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
# b column k of E + m - sigma.p), (4,) or (N, 4).  a and b are exact unit
# literals and a unit 1 multiplies nothing: a complex product can flip the
# sign of a zero part, which ``elko eval`` prints.

def _block_axis(block):
    (j,) = np.flatnonzero(block)
    return j, next(unit for unit in (1, 1j, -1, -1j) if unit == block[j])


_PATTERN_AXES = {(family, *key): (*_block_axis(pattern[:2]), *_block_axis(pattern[2:]))
                 for family, patterns in _REST_PATTERNS.items()
                 for key, pattern in patterns.items()}


def _boosted_pattern(p, j, a, k, b) -> np.ndarray:
    pp, pm = p.E + p.pz + p.m, p.E - p.pz + p.m
    right = ((pp, p.p_r), (p.p_l, pm))[j]
    left = ((pm, -p.p_r), (-p.p_l, pp))[k]
    c = 1.0 / (2.0 * _sqrt(p.E + p.m))
    entries = [x if a == 1 else a * x for x in right] + [x if b == 1 else b * x for x in left]
    return (c * np.array(entries, dtype=complex)).T


# ---------------------------------------------------------------------------
# helicity 2-spinors
# ---------------------------------------------------------------------------

def _helicity_spinor(ct, st, phi, h: int, theta1, theta2) -> np.ndarray:
    em, ep = np.exp(-0.5j * phi), np.exp(0.5j * phi)
    if h > 0:
        e = np.exp(1j * theta1)
        return vector(e * (ct * em), e * (st * ep))
    e = np.exp(1j * theta2)
    return vector(e * (st * em), e * (-ct * ep))


def helicity_components(theta, phi, h: int, theta1=0.0, theta2=0.0) -> np.ndarray:
    """Unit-norm sigma.n eigen-2-spinor of eigenvalue h = +-1 at arbitrary
    real angles (half-angle forms) with the phases theta1/theta2; (2,) for
    float angles and phases, (N, 2) for (N,) arrays."""
    if h not in (1, -1):
        raise DomainError(f"helicity must be +1 or -1, got {h}")
    return _helicity_spinor(np.cos(theta / 2.0), np.sin(theta / 2.0), phi, h, theta1, theta2)


def helicity_components_at(p, h: int, theta1: float = 0.0, theta2: float = 0.0) -> np.ndarray:
    """The sigma.p-hat eigen-2-spinor of p's direction ((1, 0) / (0, -1) at
    rest), from the half angles of ``half_angles``; (N, 2) on a batch."""
    return _helicity_spinor(*half_angles(p), h, theta1, theta2)


def index_flip_unitary(phi, alpha, beta) -> np.ndarray:
    """The unitary connecting the two helicity 2-spinors; (2, 2) for float
    angles, (N, 2, 2) for (N,) arrays.

    U maps the +1 spinor (phase alpha) onto the -1 spinor (phase beta);
    its adjoint maps back.
    """
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


def _helicity_rest(f, family, kind, m):
    dressed = _ZETA[family][kind] * (np.conj(f) @ theta_half.T)
    pair = [dressed, f] if family == "lambda" else [f, dressed]
    return column(_sqrt(m / 2.0)) * np.concatenate(pair, axis=-1)


def _components(family, p, kind, index, basis, cfg) -> np.ndarray:
    _check_kind_index(kind, index)
    _check_basis(basis)
    if basis == "spinorial":
        return _boosted_pattern(p, *_PATTERN_AXES[family, kind, index])
    h = _INDEX_TO_H[index]
    f = helicity_components_at(p, h, cfg.theta1, cfg.theta2)
    s = -h if family == "lambda" else h   # the blocks' sigma.p-hat eigenvalue
    return column(boost_eigenvalue(p, s)) * _helicity_rest(f, family, kind, p.m)


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
    if sign not in ("particle", "antiparticle"):
        raise DomainError(f"sign must be 'particle' or 'antiparticle', got {sign!r}")
    if index not in INDICES:
        raise DomainError(f"index must be 'up' or 'down', got {index!r}")
    _check_basis(basis)
    s = 1.0 if sign == "particle" else -1.0
    sm = _sqrt(p.m)
    if basis == "spinorial":
        col = 0 if index == "up" else 1
        right, left = boost_half(p, "R")[..., col], boost_half(p, "L")[..., col]
        return np.concatenate([column(sm) * right, column(s * sm) * left], axis=-1)
    h = _INDEX_TO_H[index]
    f = helicity_components_at(p, h, cfg.theta1, cfg.theta2)
    upper = column(sm * boost_eigenvalue(p, h)) * f
    lower = column(s * sm * boost_eigenvalue(p, -h)) * f
    return np.concatenate([upper, lower], axis=-1)


def lambda_spinor(p: FourMomentum, kind: str, index: str,
                  basis: str = "spinorial", cfg: PhaseConfig = PhaseConfig()) -> Bispinor:
    """Boosted lambda spinor at one momentum (see ``lambda_components``)."""
    return Bispinor(lambda_components(p, kind, index, basis, cfg), "lambda", kind, index, basis, p)


def rho_spinor(p: FourMomentum, kind: str, index: str,
               basis: str = "spinorial", cfg: PhaseConfig = PhaseConfig()) -> Bispinor:
    """Boosted rho spinor (second self/anti-self conjugate family)."""
    return Bispinor(rho_components(p, kind, index, basis, cfg), "rho", kind, index, basis, p)


def helicity_lambda_at(p: FourMomentum, kind: str, h: int, theta: float, phi: float,
                       cfg: PhaseConfig = PhaseConfig()) -> np.ndarray:
    """Helicity-family lambda with explicitly supplied (possibly unwrapped)
    angles; used by the space-inversion checks, which substitute
    theta -> pi - theta, phi -> pi + phi without reducing mod 2 pi.

    The angles need not be those of p, so the rest spinor is boosted with
    the explicit 4x4 matrix rather than the eigenvalue factor.
    """
    f = helicity_components(theta, phi, h, cfg.theta1, cfg.theta2)
    return boost_half_pair(p) @ _helicity_rest(f, "lambda", kind, p.m)


def dirac_spinor(p: FourMomentum, sign: str, index: str,
                 basis: str = "spinorial", cfg: PhaseConfig = PhaseConfig()) -> Bispinor:
    """Dirac particle/antiparticle spinor at one momentum (see
    ``dirac_components``)."""
    family = "u" if sign == "particle" else "v"
    return Bispinor(dirac_components(p, sign, index, basis, cfg), family, sign, index, basis, p)


def chiral_helicity_sign(family: str, index: str) -> int:
    """Sign of the chiral-helicity eigenvalue (in units of 1/2) carried by a
    helicity-family spinor.

    The lambda labels align with the eigenvalue (up -> +1/2); the rho family,
    being +-i times the index-flipped anti-family, anti-aligns (up -> -1/2).
    """
    if family not in ("lambda", "rho"):
        raise DomainError(f"family must be 'lambda' or 'rho', got {family!r}")
    if index not in INDICES:
        raise DomainError(f"index must be 'up' or 'down', got {index!r}")
    sign = 1 if index == "up" else -1
    return sign if family == "lambda" else -sign


def bar_product(a, b):
    """Lorentz-invariant pairing a-bar b = a^dagger gamma0 b; a complex for
    two spinors, an (N,) array for two (N, 4) batches."""
    av = a.components if isinstance(a, Bispinor) else np.asarray(a, dtype=complex)
    bv = b.components if isinstance(b, Bispinor) else np.asarray(b, dtype=complex)
    if isinstance(a, Bispinor) and isinstance(b, Bispinor):
        pa, pb = a.momentum, b.momentum
        if (pa.px, pa.py, pa.pz, pa.m) != (pb.px, pb.py, pb.pz, pb.m):
            raise DomainError("bar_product requires both spinors at the same momentum")
    pairing = vdot(av, matvec(gamma0, bv))
    return complex(pairing) if av.ndim == 1 else pairing


# ---------------------------------------------------------------------------
# golden-value file (regression anchor for the closed forms)
# ---------------------------------------------------------------------------

GOLDEN_HEADER = "spinor-golden v1"


def golden_records(momenta) -> list[str]:
    """One text record per fixed-axis spinor at each momentum."""
    lines = []
    for p in momenta:
        for family, fn in (("lambda", lambda_spinor), ("rho", rho_spinor)):
            for kind in KINDS_SELF:
                for index in INDICES:
                    comps = fn(p, kind, index).components
                    nums = " ".join(f"{x:.17g}" for c in comps for x in (c.real, c.imag))
                    lines.append(
                        f"{family} {kind} {index} "
                        f"{p.px:.17g} {p.py:.17g} {p.pz:.17g} {p.m:.17g} {nums}"
                    )
    return lines


def write_golden(path, momenta):
    with open(path, "w") as fh:
        fh.write(GOLDEN_HEADER + "\n")
        for line in golden_records(momenta):
            fh.write(line + "\n")


def read_golden(path):
    """Yields (family, kind, index, momentum, components) tuples."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != GOLDEN_HEADER:
            raise DomainError(f"unsupported golden file header {header!r}")
        out = []
        for line in fh:
            if not line.strip():
                continue
            parts = line.split()
            family, kind, index = parts[0], parts[1], parts[2]
            px, py, pz, m = (float(x) for x in parts[3:7])
            comps = np.array([float(x) for x in parts[7:15]]).view(complex)
            out.append((family, kind, index, make_momentum(px, py, pz, m), comps))
        return out
