"""Solver knobs, grouped in one immutable config object."""

from dataclasses import dataclass


@dataclass(frozen=True)
class SolverConfig:
    """Desk-scale defaults; every exhaustive or iterative routine takes one of these.

    enumeration_cap     bounds the number of box points any exhaustive verifier
                        or brute-force solve may visit.
    wolfe_tol           tolerance of the min-norm-point solve, which runs only
                        on opaque objectives of library callers (family
                        specs, embedded ones too, take a minimum cut whose
                        gap is checked against the 1e-7 floor).  Wolfe stops
                        as soon as its optimality certificate holds: f of the
                        best threshold set of the iterate x, less the lower
                        bound f(0) + sum(min(x, 0)), is below 1 for integer
                        objectives or at most max(10*wolfe_tol, 1e-7) for
                        float ones.  That difference is the reported
                        ``duality_gap``.  The tolerance also bounds the Wolfe
                        gap and the squared-norm improvement between major
                        iterations, which stop solves that never certify.
    level_budget        cap on the total number of binary level variables a
                        reduction may create (guards against huge bounds).

    Fixed limits are module constants: `sfm.BRUTEFORCE_CAP` (largest binary
    ground set the exhaustive set-function minimizer accepts),
    `sfm.PENALTY_RETRIES` (retries of the ring-constrained minimizer after
    its tight first penalty weight: one at the wide weight, then doublings)
    and `solver.CERTIFICATE_TOL` (absolute slack of the floating-point
    certificate inequalities).
    """

    enumeration_cap: int = 1 << 20
    wolfe_tol: float = 1e-9
    level_budget: int = 100_000


DEFAULT_CONFIG = SolverConfig()
