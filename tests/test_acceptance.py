"""Acceptance gate: every criterion at its stated tolerance, desk scale
(100 sampled momenta, seed 1, each suite well under 10 s).

Each test prints one pass/fail line; run with -s (or -v) to see them.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from elko import TOLERANCES
from elko import dynamics as dyn
from elko import operators as ops
from elko import spin_one as s1
from elko import spinors as sp
from elko.cli import main as cli_main
from elko.kinematics import make_momentum, parity_reflect, sample_momenta
from elko.matrices import block_diag2, gamma0, pauli_dot
from elko.suite import run_suite

SEED = 1
SAMPLES = 100


def _sample_momenta(n=SAMPLES, seed=SEED):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        m = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        pabs = float(rng.uniform(0.0, 10.0 * m))
        v = pabs * d
        if pabs == 0.0:
            continue
        out.append(make_momentum(v[0], v[1], v[2], m))
    return out


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_01_conjugacy():
    c_op = ops.charge_conjugation()
    worst = 0.0
    for p in _sample_momenta():
        for fn in (sp.lambda_spinor, sp.rho_spinor):
            for kind, sign in (("S", 1), ("A", -1)):
                for index in ("up", "down"):
                    v = fn(p, kind, index).components
                    worst = max(worst, float(
                        np.linalg.norm(c_op.apply(v) - sign * v) / np.linalg.norm(v)))
    assert worst <= 1e-12
    _report("criterion 1 (conjugacy of all four families)", f"max residual {worst:.2e}")


def test_criterion_02_rest_frame_table(capsys):
    # frozen oracle: the rest-frame component patterns worked out by hand
    # (rho rows follow from rho^S_ud = -+i lambda^A_du, rho^A_ud = +-i lambda^S_du)
    expected_rows = {
        "lambda^S_up": ["0", "i", "1", "0"],
        "lambda^S_down": ["-i", "0", "0", "1"],
        "lambda^A_up": ["0", "-i", "1", "0"],
        "lambda^A_down": ["i", "0", "0", "1"],
        "rho^S_up": ["1", "0", "0", "-i"],
        "rho^S_down": ["0", "1", "i", "0"],
        "rho^A_up": ["1", "0", "0", "i"],
        "rho^A_down": ["0", "1", "-i", "0"],
    }
    for mass in (0.5, 1.0, 2.0):
        code = cli_main(["table", "--mass", str(mass), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["prefactor"] == pytest.approx(math.sqrt(mass / 2.0), abs=0)
        got = {row["name"]: row["components"] for row in data["spinors"]}
        assert got == expected_rows
        # and the numeric factories agree with pattern * sqrt(m/2) exactly
        for (kind, index), pat in sp.REST_LAMBDA_PATTERNS.items():
            assert np.array_equal(sp.rest_lambda(kind, index, mass).components,
                                  math.sqrt(mass / 2.0) * pat)
    _report("criterion 2 (rest-frame table regression)",
            "symbolic entries exact for m in {0.5, 1, 2}")


def test_criterion_03_coupled_dynamics_convention():
    momenta = _sample_momenta()
    conv = dyn.discover_convention(momenta[:16])
    worst_good = 0.0
    worst_wrong = math.inf
    wrong = dyn.FrequencyConvention(-conv.sign)
    # the wrong-convention residual has mass dimension 3/2: over m alone it
    # is 2 sqrt(m) at rest, so the light rest momenta would fall below 0.5
    light = [make_momentum(0, 0, 0, m) for m in (1e-4, 1e-2)]
    for p in momenta + light:
        worst_good = max(worst_good, max(dyn.coupled_system_residual(p, conv)))
        scale = p.m * dyn.physical_state_scale(dyn.physical_states(p))
        worst_wrong = min(worst_wrong, max(dyn.coupled_system_residual(p, wrong)) / scale)
    assert worst_good <= 1e-12
    assert worst_wrong > TOLERANCES["floor_mass"]
    _report("criterion 3 (coupled equations, unique frequency convention)",
            f"residual {worst_good:.2e}, wrong-convention floor {worst_wrong:.2f} m max|psi|")


def test_criterion_04_unitary_chain():
    worst = 0.0
    half_diag = 0.5 * np.diag([1.0, 1.0, -1.0, -1.0])
    g5_diag = np.diag([1.0, 1.0, -1.0, -1.0])
    for p in _sample_momenta():
        u = ops.u1(p)
        worst = max(worst, abs(np.linalg.det(u) - 1.0))
        conj_h = u @ ops.helicity_operator(p).matrix @ np.linalg.inv(u)
        chained = ops.u3() @ conj_h @ np.linalg.inv(ops.u3())
        worst = max(worst, float(np.linalg.norm(chained - half_diag)))
        sn = pauli_dot(*p.direction())
        alpha_n = block_diag2(sn, -sn)
        conj_a = u @ alpha_n @ np.linalg.inv(u)
        worst = max(worst, float(np.linalg.norm(ops.u2() @ conj_a @ ops.u2().conj().T
                                                - g5_diag)))
    worst = max(worst, abs(np.linalg.det(ops.u2()) + 1.0),
                abs(np.linalg.det(ops.u3()) + 1.0))
    assert worst <= 1e-12
    _report("criterion 4 (unitary chain)", f"max residual {worst:.2e}")


def test_criterion_05_eigenstate_separation():
    worst_eta = 0.0
    best_h = math.inf
    for p in _sample_momenta():
        eta = ops.chiral_helicity_operator(p)
        h_op = ops.helicity_operator(p)
        for kind in ("S", "A"):
            for index in ("up", "down"):
                v = sp.lambda_spinor(p, kind, index, "helicity").components
                v = v / np.linalg.norm(v)
                ev = 0.5 * sp.chiral_helicity_sign("lambda", index)
                worst_eta = max(worst_eta, float(np.linalg.norm(eta.apply(v) - ev * v)))
                hv = h_op.apply(v)
                fit = np.vdot(v, hv)
                best_h = min(best_h, float(np.linalg.norm(hv - fit * v)))
    assert worst_eta <= 1e-12
    assert best_h > 0.1
    _report("criterion 5 (helicity vs chiral-helicity separation)",
            f"chiral-helicity residual {worst_eta:.2e}, helicity floor {best_h:.2f}")


def test_criterion_06_parity_phases():
    relations = [("S", "up", "down", 1j), ("S", "down", "up", -1j),
                 ("A", "up", "down", -1j), ("A", "down", "up", 1j)]
    worst = 0.0
    for p in _sample_momenta():
        pr = parity_reflect(p)
        for kind, src, dst, coeff in relations:
            img = gamma0 @ sp.lambda_spinor(pr, kind, src).components
            tgt = coeff * sp.lambda_spinor(p, kind, dst).components
            worst = max(worst, float(np.linalg.norm(img - tgt) / np.linalg.norm(tgt)))

    rng = np.random.default_rng(SEED)
    from elko.matrices import theta_half

    for _ in range(SAMPLES):
        th = float(rng.uniform(0, math.pi))
        ph = float(rng.uniform(0, 2 * math.pi))
        t1, t2 = (float(x) for x in rng.uniform(0, 2 * math.pi, 2))
        fp = sp.helicity_components(th, ph, 1, t1, t2)
        fm = sp.helicity_components(th, ph, -1, t1, t2)
        rfp = sp.helicity_components(math.pi - th, math.pi + ph, 1, t1, t2)
        rfm = sp.helicity_components(math.pi - th, math.pi + ph, -1, t1, t2)
        worst = max(worst, float(np.linalg.norm(rfm + 1j * cmath.exp(1j * (t2 - t1)) * fp)))
        worst = max(worst, float(np.linalg.norm(rfp + 1j * cmath.exp(1j * (t1 - t2)) * fm)))
        worst = max(worst, float(np.linalg.norm(
            theta_half @ np.conj(rfm) + 1j * cmath.exp(-2j * t2) * fm)))
        worst = max(worst, float(np.linalg.norm(
            theta_half @ np.conj(rfp) - 1j * cmath.exp(-2j * t1) * fp)))
    assert worst <= 1e-12
    _report("criterion 6 (parity phases, both bases)", f"max residual {worst:.2e}")


def test_criterion_07_cp_dichotomy():
    q = sample_momenta(np.random.default_rng(SEED), SAMPLES)
    dirac = ops.classify_cp_action(q, "spinorial", "dirac")
    elko = ops.classify_cp_action(q, "helicity", "elko")
    assert dirac.relation == "anticommute"
    assert dirac.anticommute_residual <= 1e-12
    assert dirac.commute_residual > 0.1
    assert elko.relation == "commute"
    assert elko.commute_residual <= 1e-12
    assert elko.anticommute_residual > 0.1
    _report("criterion 7 (CP dichotomy)",
            f"dirac anticommute {dirac.anticommute_residual:.2e} "
            f"(opposite {dirac.commute_residual:.2f}), "
            f"elko commute {elko.commute_residual:.2e} "
            f"(opposite {elko.anticommute_residual:.2f})")


def test_criterion_08_invariances():
    rng = np.random.default_rng(SEED)
    c_op = ops.charge_conjugation()
    worst = 0.0
    momenta = _sample_momenta(10)
    alphas = rng.uniform(0, 2 * math.pi, 20)
    for p in momenta:
        quartet = [sp.lambda_spinor(p, "S", "up").components,
                   sp.rho_spinor(p, "A", "up").components,
                   sp.lambda_spinor(p, "A", "up").components,
                   sp.rho_spinor(p, "S", "up").components]
        base = dyn.lagrangian_mass_term(*quartet, p.m)
        for alpha in alphas:
            gl = ops.chiral_gauge_transform(float(alpha), "lambda")
            gr = ops.chiral_gauge_transform(float(alpha), "rho")
            moved = dyn.lagrangian_mass_term(gl @ quartet[0], gr @ quartet[1],
                                             gl @ quartet[2], gr @ quartet[3], p.m)
            worst = max(worst, abs(moved - base))
            fields = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(4)]
            before = dyn.lagrangian_mass_term(*fields, p.m)
            after = dyn.lagrangian_mass_term(gl @ fields[0], gr @ fields[1],
                                             gl @ fields[2], gr @ fields[3], p.m)
            worst = max(worst, abs(before - after) / max(1.0, abs(before)))
            v = gl @ quartet[0]
            worst = max(worst, float(np.linalg.norm(c_op.apply(v) - v) / np.linalg.norm(v)))
        # conjugacy preserved by the intertwiner block transforms
        for t in ops.lambda_basis_transforms(p):
            img = t @ sp.lambda_spinor(p, "S", "up", "helicity").components
            worst = max(worst, float(np.linalg.norm(c_op.apply(img) - img)
                                     / np.linalg.norm(img)))
    assert worst <= 1e-12

    closure = 0.0
    for _ in range(40):
        mats = []
        for _ in range(2):
            phi = float(rng.uniform(0, 2 * math.pi))
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            mats.append(ops.su2_phase_transform(math.cos(phi), n * math.sin(phi)))
        prod = mats[0] @ mats[1]
        closure = max(closure, float(np.linalg.norm(prod @ prod.conj().T - np.eye(2))))
        closure = max(closure, abs(abs(np.linalg.det(prod)) - 1.0))
    assert closure <= 1e-13
    _report("criterion 8 (gauge/basis/SU(2) invariances)",
            f"invariance residual {worst:.2e}, closure {closure:.2e}")


def test_criterion_09_spin_one():
    rng = np.random.default_rng(SEED)
    worst_sq = 0.0
    sc = s1.sc_one()
    g5sc = s1.gamma5_sc_one()
    for _ in range(20):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        worst_sq = max(worst_sq, float(
            np.linalg.norm(sc.apply(sc.apply(v)) + v) / np.linalg.norm(v)))
        worst_sq = max(worst_sq, float(
            np.linalg.norm(g5sc.apply(g5sc.apply(v)) - v) / np.linalg.norm(v)))
    assert worst_sq <= 1e-13

    momenta = [make_momentum(0, 0, 0, 1.0)] + _sample_momenta(20)
    worst_min = 0.0
    floor = math.inf
    for p in momenta:
        for construction in ("lambda", "rho"):
            twisted = s1.spin1_conjugacy_scan(p, "g5sc", construction)
            worst_min = max(worst_min, twisted.self_minimum.residual,
                            twisted.anti_minimum.residual,
                            abs(twisted.self_minimum.zeta - 1.0),
                            abs(twisted.anti_minimum.zeta + 1.0))
            bare = s1.spin1_conjugacy_scan(p, "sc", construction)
            floor = min(floor, bare.self_minimum.residual, bare.anti_minimum.residual)
    assert worst_min <= 1e-10
    assert floor > 0.1
    _report("criterion 9 (spin-1 conjugation)",
            f"squares {worst_sq:.2e}, twisted minima {worst_min:.2e}, "
            f"bare floor {floor:.2f}")


def test_criterion_10_determinism():
    t0 = time.time()
    a = run_suite("all", seed=SEED, samples=SAMPLES)
    elapsed = time.time() - t0
    b = run_suite("all", seed=SEED, samples=SAMPLES)
    assert a.to_json().encode() == b.to_json().encode()
    assert a.summary["failed"] == 0
    assert elapsed < 10.0
    _report("criterion 10 (byte-identical reports)",
            f"full suite {a.summary['passed']}/{a.summary['total']} in {elapsed:.1f}s")
