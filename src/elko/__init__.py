"""Self/anti-self charge-conjugate momentum-space spinors for spin 1/2 and
spin 1, their discrete-symmetry and basis-rotation operators, and a seeded
verification suite for every algebraic identity they satisfy.

``import elko`` loads no submodule.  Each public name below is looked up in
its owning submodule on each use (PEP 562), which imports that submodule the
first time; ``from elko import make_momentum`` loads ``kinematics`` and what
it needs, and the suite loads only when one of its names is used.  The
lookup binds nothing here, so ``elko.<name>`` is always the submodule's
current attribute, a patched or restored one included.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it owns
_EXPORTS = {
    "config": ("TOLERANCES",),
    "errors": ("AmbiguousIntertwinerError", "CoordinateSingularityError", "DimensionError",
               "DirectionUndefinedError", "DomainError", "ElkoError", "UsageError"),
    "kinematics": ("FourMomentum", "MomentumBatch", "boost_half", "boost_half_pair", "boost_one",
                   "make_momenta", "make_momentum", "parity_reflect"),
    "matrices": ("adjoint", "gamma0", "gamma1", "gamma2", "gamma3", "gamma5", "sigma_x",
                 "sigma_y", "sigma_z", "theta_half", "theta_one"),
    "spinors": ("Bispinor", "PhaseConfig", "bar_product", "chiral_helicity_sign",
                "dirac_components", "dirac_spinor", "index_flip_unitary", "lambda_components",
                "lambda_spinor", "rest_lambda", "rest_rho", "rho_components", "rho_spinor"),
    "operators": ("ActionClassification", "SymmetryOperator", "charge_conjugation",
                  "chiral_gauge_transform", "chiral_helicity_operator", "chirality",
                  "classify_cp_action", "helicity_operator", "lambda_basis_transforms",
                  "parity_operator", "su2_phase_transform", "u1", "u2", "u3", "xi_matrix"),
    "dynamics": ("FrequencyConvention", "coupled_equations", "coupled_system_residual",
                 "dirac_matrix", "discover_convention", "eight_component_residual",
                 "lagrangian_mass_term", "markov_superposition", "sen_gupta_equivalence",
                 "sen_gupta_null_space", "sen_gupta_residual"),
    "spin_one": ("ConjugacyScan", "gamma5_one", "gamma5_sc_one", "sc_one",
                 "spin1_conjugacy_scan", "spin1_pair", "ss_one"),
    "suite": ("VerificationReport", "diff_reports", "run_suite"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_OWNER]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is not None:
        return getattr(_import_module(f"{__name__}.{module}"), name)
    if name in _EXPORTS:
        # importing a submodule binds it here, so this runs once per submodule
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
