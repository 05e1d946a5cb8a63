"""The suite's checks outside the box it samples: a domain map.

The suite draws m log-uniform in [0.1, 10] and |p| uniform in [0, 10 m].
Here the sampler is patched to draw m and |p|/m log-uniform over five
regions, with the direction uniform over the sphere, and all 60 checks run
at seeds 1-3 with 1000 samples in each region.  The checks read
``sample_momenta`` from ``kinematics``, where it is patched.

Every check off ``OUT_OF_BOX`` passes in every region.  The eleven on it
fail in at least one region: their residuals carry mass dimension against
an absolute bound, or lose digits at large boosts (see ROADMAP item 6).
``pytest -s`` prints each check's worst residual per region, the largest
or, for a floor, the smallest over the three seeds, with failures marked.
"""

import numpy as np
import pytest

from elko import kinematics as kin
from elko.suite import run_suite, suite_checks

# (m range, |p|/m range), each drawn log-uniform
REGIONS = {
    "m 1e-6..0.1": ((1e-6, 0.1), (1e-3, 10.0)),
    "m 10..1e6": ((10.0, 1e6), (1e-3, 10.0)),
    "p/m ..1e3": ((0.1, 10.0), (1e-3, 1e3)),
    "p/m ..1e6": ((0.1, 10.0), (1e-3, 1e6)),
    "p/m ..1e12": ((0.1, 10.0), (1e-3, 1e12)),
}

OUT_OF_BOX = frozenset({
    "dynamics.clifford-square", "dynamics.coupled-system", "dynamics.eight-component",
    "dynamics.eight-gauge", "dynamics.markov", "dynamics.sen-gupta-dirac-limit",
    "spin-half.bar-norms", "spin-half.boost-consistency", "spin-half.dirac-eigen",
    "spin-one.boost-closed-form", "spin-one.zeta-boost-persistence",
})


def _sampler(mass, ratio):
    """``sample_momenta`` over one region: the same three draws, with m and
    |p|/m log-uniform in their ranges."""
    (m_lo, m_hi), (r_lo, r_hi) = np.log(mass), np.log(ratio)

    def sample(rng, n):
        u, g, v = rng.random(n), rng.normal(size=(n, 3)), rng.random(n)
        m = np.exp(m_lo + (m_hi - m_lo) * u)
        pabs = m * np.exp(r_lo + (r_hi - r_lo) * v)
        return kin.make_momenta(*((pabs / np.sqrt(np.sum(g * g, axis=1)))[:, None] * g).T, m)

    return sample


@pytest.fixture(scope="module")
def domain_map():
    """region -> check id -> (worst residual, passed at every seed)."""
    floors = {c.id for c in suite_checks("all") if c.expectation == "exceed-floor"}
    out = {}
    with pytest.MonkeyPatch.context() as patch:
        for region, (mass, ratio) in REGIONS.items():
            patch.setattr(kin, "sample_momenta", _sampler(mass, ratio))
            runs = [run_suite("all", seed, 1000).checks for seed in (1, 2, 3)]
            out[region] = {
                c.id: ((min if c.id in floors else max)(r.residual for r in rows),
                       all(r.status == "pass" for r in rows))
                for c, *rows in zip(runs[0], *runs)}
    return out


def test_the_map_covers_every_check_in_every_region(domain_map):
    ids = {c.id for c in suite_checks("all")}
    assert len(ids) == 60 and OUT_OF_BOX <= ids
    header = f"{'check':<42}" + "".join(f"{region:>14}" for region in REGIONS)
    lines = [header]
    for cid in sorted(ids):
        cells = [domain_map[region][cid] for region in REGIONS]
        lines.append(f"{cid:<42}" + "".join(f"{res:>13.2e}{' ' if ok else '*'}"
                                            for res, ok in cells))
    counts = [sum(not ok for ok in (v[1] for v in domain_map[r].values())) for r in REGIONS]
    lines.append(f"{'failing checks (* above)':<42}" + "".join(f"{n:>14}" for n in counts))
    print("\n" + "\n".join(lines))
    assert all(domain_map[region].keys() == ids for region in REGIONS)


@pytest.mark.parametrize("region", list(REGIONS))
def test_checks_off_the_list_pass_in_every_region(domain_map, region):
    failing = {cid for cid, (_, ok) in domain_map[region].items() if not ok}
    assert failing <= OUT_OF_BOX, sorted(failing - OUT_OF_BOX)
