"""Workload definitions, seed-to-case mapping and frozen reference errors.

A workload is one element family run through one refinement sequence; the
comment on each says why it is here.  The seed only chooses which smooth
manufactured solution the study solves; the solver sees nothing but the
generated case.
"""

from __future__ import annotations

from dataclasses import dataclass

SMOOTH_CASES = ("cospi_cospi", "cospi_sinpi", "x2_cospi")


@dataclass(frozen=True)
class Workload:
    name: str
    element: tuple  # (k, j, ell)
    mesh_family: str  # "tri" or "rect"
    levels: tuple  # nominal 1/h labels, as run_convergence_study takes them
    rho: float
    gamma: float
    default_case: str
    target_rates: tuple  # (energy, l2, edge) at the final refinement pair
    rate_tol: float

    def case_for_seed(self, seed: int) -> str:
        """Seed 0 gives the default case; other seeds rotate through the rest."""
        start = SMOOTH_CASES.index(self.default_case)
        return SMOOTH_CASES[(start + seed) % len(SMOOTH_CASES)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="highorder_tri",
            element=(3, 4, 4),
            mesh_family="tri",
            levels=(8, 16, 32),
            rho=1.0,
            gamma=-1.0,
            default_case="cospi_cospi",
            target_rates=(3.00, 4.01, 4.00),
            rate_tol=0.1,
            # 25 dofs per element: the sparse LU is nearly all of the time
            # (35 520 free unknowns, 1.18M nnz at 1/h = 32), so matrix
            # ordering and static condensation show here first.  1/h = 64
            # is left out: one such study takes 12-20 s on 2 cores, too few
            # per run for a steady median.
        ),
        Workload(
            name="lowest_tri",
            element=(0, 0, 0),
            mesh_family="tri",
            levels=(32, 64, 128),
            rho=1.0,
            gamma=0.0,
            default_case="cospi_cospi",
            target_rates=(0.5, 1.0, 1.0),
            rate_tol=0.1,
            # 32k elements with one interior unknown each: the Python loops
            # of mesh and shape-class set-up plus projection weigh against a
            # cheap solve.  Static condensation has nothing to eliminate here
            # (k = 0), so a condensation change should leave it unchanged.
        ),
        Workload(
            name="stabfree_rect",
            element=(2, 1, 3),
            mesh_family="rect",
            levels=(8, 16, 32, 64),
            rho=0.0,
            gamma=-1.0,
            default_case="x2_cospi",
            target_rates=(3.0, 4.0, 4.0),
            rate_tol=0.15,
            # One quadrilateral shape class and no stabilizer: invertibility
            # rests on the rich gradient space alone.  A solver change that
            # assumes rho > 0 (unpivoted symmetric LU, CG, condensing an
            # indefinite interior block) fails or slows down here.  The
            # sequence is the acceptance test's; up to 1/h = 128 a study
            # takes about 3 s, and ten per run spread too much.
        ),
    )
}


# Finest-level errors (energy, l2, edge) of the seed commit's solver for
# every workload and case, kept to five significant digits.  The end-to-end
# accuracy metrics are the finest-level errors divided by these.
REFERENCE_ERRORS = {
    ("highorder_tri", "cospi_cospi"): (2.4582e-06, 4.9687e-09, 3.1684e-08),
    ("highorder_tri", "cospi_sinpi"): (2.4590e-06, 4.9676e-09, 3.1699e-08),
    ("highorder_tri", "x2_cospi"): (5.5719e-07, 1.1630e-09, 6.9449e-09),
    ("lowest_tri", "cospi_cospi"): (3.3364e-01, 1.1086e-02, 1.9538e-03),
    ("lowest_tri", "cospi_sinpi"): (3.3364e-01, 1.0863e-02, 1.5838e-03),
    ("lowest_tri", "x2_cospi"): (7.7499e-02, 2.5701e-03, 7.5220e-04),
    ("stabfree_rect", "cospi_cospi"): (8.9033e-06, 5.8636e-08, 7.1883e-08),
    ("stabfree_rect", "cospi_sinpi"): (8.9114e-06, 4.6984e-08, 7.0333e-08),
    ("stabfree_rect", "x2_cospi"): (2.5540e-06, 1.9339e-08, 2.3647e-08),
}

# The paper's reference table for (3,4,4), cospi_cospi, as frozen in the
# acceptance test test_high_order_triangular_family; errors must lie within
# a factor of 2 of it.
ACCEPTANCE_REFERENCE = {
    8: (1.56e-04, 1.33e-06, 4.13e-06),
    16: (1.95e-05, 8.03e-08, 2.60e-07),
    32: (2.45e-06, 4.96e-09, 1.63e-08),
    64: (3.06e-07, 3.08e-10, 1.02e-09),
}
ACCEPTANCE_FACTOR = 2.0

# Largest accepted ||A x - b|| / ||b|| of a solve in the traced run; the
# seed commit's LU reaches 1e-13 at worst on these workloads.
RESIDUAL_TOL = 1e-10
