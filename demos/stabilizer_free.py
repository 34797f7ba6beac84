"""
Dropping the penalty term entirely (rho = 0).

The bilinear form then consists of the weak-gradient stiffness alone.
For most degree combinations that system is singular -- nothing couples
an edge unknown to its neighbors once the penalty is gone -- but with a
rich enough gradient space ([P_l]^2, here l = k + 1 on rectangles) the
weak gradient itself carries the coupling and the system stays
invertible.  -div(grad u) = f with u = x^2 cos(pi y).
"""
from gwgfem import (
    SchemeParameters,
    SingularSystem,
    WeakSpaceSignature,
    get_case,
    run_convergence_study,
)

case = get_case("x2_cospi")

# the lowest-order family with rho=0 is singular: show the failure mode
try:
    run_convergence_study(
        case,
        "tri",
        [2, 4],
        WeakSpaceSignature(0, 0, 0),
        SchemeParameters(rho=0.0, gamma=-1.0),
    )
    print("unexpected: lowest-order family solved without a penalty")
except SingularSystem as err:
    print("P0/P0/[P0]^2 with rho=0: %s" % err)
print()

# P2/P1/[P3]^2 with rho=0 stays solvable and superconverges at (3, 4, 4)
report = run_convergence_study(
    case,
    "rect",
    [8, 16, 32, 64],
    WeakSpaceSignature(2, 1, 3),
    SchemeParameters(rho=0.0, gamma=-1.0),
)
print("P2/P1/[P3]^2, rho=0, rectangular partitions")
print("%6s %12s %6s %12s %6s %12s %6s" % ("label", "energy", "rate", "L2", "rate", "edge", "rate"))
for row, rates in zip(report.rows, report.rates()):
    cells = ["%6d" % row.label]
    for err, rate in zip((row.energy_err, row.l2_err, row.edge_err), rates):
        cells.append("%12.3E" % err)
        cells.append("  --".rjust(6) if rate is None else "%6.2f" % rate)
    print(" ".join(cells))
