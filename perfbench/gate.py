"""Correctness gate applied to every study the benchmark runs.

A study that fails any check counts as failed; it is never dropped.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import ACCEPTANCE_FACTOR, ACCEPTANCE_REFERENCE, RESIDUAL_TOL

_NORMS = ("energy_err", "l2_err", "edge_err")


def report_problems(workload, case_name: str, report) -> list[str]:
    """Reasons an ErrorReport fails the gate; empty when it passes.

    Checks: every error finite; final rates within the workload's band;
    for (3,4,4) on cospi_cospi, every level within a factor of 2 of the
    acceptance reference table.
    """
    problems = []
    for row in report.rows:
        for name in _NORMS:
            value = getattr(row, name)
            if not math.isfinite(value):
                problems.append(f"level {row.label}: {name} = {value}")
    rates = report.final_rates()
    band = zip(rates, workload.target_rates)
    if any(r is None or not abs(r - t) <= workload.rate_tol for r, t in band):
        problems.append(
            f"final rates {rates} outside {workload.target_rates} +-{workload.rate_tol}"
        )
    if workload.name == "highorder_tri" and case_name == "cospi_cospi":
        for row in report.rows:
            for name, ref in zip(_NORMS, ACCEPTANCE_REFERENCE[row.label]):
                ratio = getattr(row, name) / ref
                if not 1.0 / ACCEPTANCE_FACTOR <= ratio <= ACCEPTANCE_FACTOR:
                    problems.append(
                        f"level {row.label}: {name} is x{ratio:.3g} of the acceptance reference"
                    )
    return problems


def rel_residual(system, u_h) -> float:
    """||A x - b|| / ||b|| of the reduced system at the returned solution."""
    x = u_h.coeffs[system.free]
    return float(np.linalg.norm(system.A @ x - system.b) / np.linalg.norm(system.b))


def residual_problems(label: int, residual: float) -> list[str]:
    if not residual <= RESIDUAL_TOL:
        return [f"level {label}: relative residual {residual:.3e} exceeds {RESIDUAL_TOL:g}"]
    return []
