"""Single table of numerical tolerances used across the library and the suite.

All residual checks are double precision; defaults leave >= 10 orders of
magnitude between "vanishes" and the floors used for nonexistence claims.
"""

TOLERANCES = {
    # generic algebraic identities on unit-normalised operands
    "identity": 1e-12,
    # identities that are exact compositions of a handful of flops
    "tight": 1e-13,
    # on-shell relative error for four-momenta
    "on_shell": 1e-14,
    # intertwiner residual relative to the operand norms
    "intertwiner": 1e-12,
    # zeta-scan minima for the spin-1 chirality-twisted conjugation
    "zeta_minimum": 1e-10,
    # floors: residuals that must stay LARGE for nonexistence/separation claims
    "floor": 0.1,
    # wrong convention must leave residuals above  floor_mass * m max|psi|
    "floor_mass": 1.6,
    # rest-limit agreement of the closed-form spinors
    "rest_limit": 1e-7,
}
