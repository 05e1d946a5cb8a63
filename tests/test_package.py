"""The package namespace: every public name resolves to its owning
submodule's object, ``import elko`` loads no submodule, ``import elko.cli``
loads only what ``eval`` and ``table`` use, and a name looked up on the
package follows a patch of its submodule."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import elko

SRC = Path(__file__).resolve().parents[1] / "src"

# submodule -> its public names reachable as elko.<name>, frozen here so that
# a name dropped from the package's table shows as a failure
PUBLIC = {
    "config": ["TOLERANCES"],
    "errors": ["AmbiguousIntertwinerError", "CoordinateSingularityError", "DimensionError",
               "DirectionUndefinedError", "DomainError", "ElkoError", "UsageError"],
    "kinematics": ["FourMomentum", "MomentumBatch", "boost_half", "boost_half_pair",
                   "boost_one", "make_momenta", "make_momentum", "parity_reflect"],
    "matrices": ["adjoint", "gamma0", "gamma1", "gamma2", "gamma3", "gamma5", "sigma_x",
                 "sigma_y", "sigma_z", "theta_half", "theta_one"],
    "spinors": ["Bispinor", "PhaseConfig", "bar_product", "chiral_helicity_sign",
                "dirac_components", "dirac_spinor", "index_flip_unitary", "lambda_components",
                "lambda_spinor", "rest_lambda", "rest_rho", "rho_components", "rho_spinor"],
    "operators": ["ActionClassification", "SymmetryOperator", "charge_conjugation",
                  "chiral_gauge_transform", "chiral_helicity_operator", "chirality",
                  "classify_cp_action", "helicity_operator", "lambda_basis_transforms",
                  "parity_operator", "su2_phase_transform", "u1", "u2", "u3", "xi_matrix"],
    "dynamics": ["FrequencyConvention", "coupled_equations", "coupled_system_residual",
                 "dirac_matrix", "discover_convention", "eight_component_residual",
                 "lagrangian_mass_term", "markov_superposition", "sen_gupta_equivalence",
                 "sen_gupta_null_space", "sen_gupta_residual"],
    "spin_one": ["ConjugacyScan", "gamma5_one", "gamma5_sc_one", "sc_one",
                 "spin1_conjugacy_scan", "spin1_pair", "ss_one"],
    "suite": ["VerificationReport", "diff_reports", "run_suite"],
}
OWNED = [(module, name) for module, names in PUBLIC.items() for name in names]

# One fresh interpreter: the elko submodules loaded after each step.  Every
# eval family and the table run through main; none may load the suite.
_FRESH = """\
import contextlib, io, sys

def loaded():
    return sorted(m.partition(".")[2] for m in sys.modules if m.startswith("elko."))

import elko
assert elko.__file__.startswith(sys.argv[1]), elko.__file__
print(loaded())
import elko.cli
print(loaded())
families = [*elko.cli._SPINOR_FAMILIES, *elko.cli._OPERATOR_FAMILIES]
with contextlib.redirect_stdout(io.StringIO()):
    for family in families:
        assert elko.cli.main(["eval", "--family", family, "--momentum", "0.3,-0.2,0.5",
                              "--mass", "1.1", "--format", "json"]) == 0, family
    assert elko.cli.main(["table", "--mass", "2"]) == 0
print(loaded())
"""


def test_a_fresh_import_loads_only_what_the_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _FRESH, str(SRC)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    after_import, after_cli, after_eval = done.stdout.splitlines()
    assert after_import == "[]"
    eval_modules = str(["cli", "config", "errors", "kinematics", "matrices", "operators",
                        "spinors"])
    assert after_cli == after_eval == eval_modules


def test_the_table_holds_every_public_name_once():
    assert len(OWNED) + len(PUBLIC) == 85
    assert sorted(elko.__all__) == sorted([*PUBLIC, *(name for _, name in OWNED)])


@pytest.mark.parametrize("module, name", OWNED)
def test_a_public_name_is_its_submodules_object(module, name):
    assert getattr(elko, name) is getattr(importlib.import_module(f"elko.{module}"), name)
    assert name in dir(elko) and name in elko.__all__


@pytest.mark.parametrize("module", PUBLIC)
def test_a_submodule_resolves_on_the_package(module):
    assert getattr(elko, module) is importlib.import_module(f"elko.{module}")
    assert module in dir(elko) and module in elko.__all__


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'spin1_scan'"):
        elko.spin1_scan


def test_the_package_follows_a_patched_submodule(monkeypatch):
    original = elko.suite.run_suite
    patched = lambda *args, **kwargs: None  # noqa: E731
    monkeypatch.setattr(elko.suite, "run_suite", patched)
    monkeypatch.setattr(elko.kinematics, "make_momentum", patched)
    assert elko.run_suite is patched and elko.make_momentum is patched
    from elko import run_suite
    assert run_suite is patched
    monkeypatch.undo()
    assert elko.run_suite is original is elko.suite.run_suite
    assert elko.make_momentum is elko.kinematics.make_momentum
    # a lookup binds nothing in the package namespace
    assert not {name for _, name in OWNED} & set(vars(elko))
