"""Smoke test of the benchmark itself; takes about a minute.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one study, with --trace 0 and
--trace 1, and checks that every end-to-end and per-layer
metric is printed with its unit and that all studies pass.  Then checks that
the gate rejects wrong results: final rates outside the band, errors far
from the acceptance table, a non-finite error and a perturbed solution
vector.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

from gate import rel_residual, report_problems, residual_problems
from worker import Study, import_gwgfem
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke test failed: {what}")


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                   "--seed", "0", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180, cwd=ROOT)
            what = f"{workload['name']} --trace {trace}"
            expect(proc.returncode == 0, f"{what} exited with {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0, f"{what} failed the gate")
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{what} printed {got}, expected {wanted}")
            for name in wanted:
                expect(f"  {name} " in proc.stdout, f"{what} did not print {name}")
            print(f"ok  {what}: {len(got)} metrics with units")


def check_gate(gwgfem) -> None:
    workload = WORKLOADS["highorder_tri"]
    report = Study(gwgfem, workload, "cospi_cospi").run()
    expect(not report_problems(workload, "cospi_cospi", report), "gate rejects a good study")

    def altered(change):
        rows = [dataclasses.replace(row, **change(row)) for row in report.rows]
        return dataclasses.replace(report, rows=rows)

    finest = report.rows[-1].label
    cases = {
        "final rates outside the band": altered(
            lambda r: {"energy_err": r.energy_err * 4.0} if r.label == finest else {}
        ),
        "errors x3 the acceptance table": altered(
            lambda r: {n: getattr(r, n) * 3.0 for n in ("energy_err", "l2_err", "edge_err")}
        ),
        "non-finite error": altered(lambda r: {"l2_err": math.nan} if r.label == finest else {}),
    }
    for what, bad in cases.items():
        expect(report_problems(workload, "cospi_cospi", bad), f"gate accepts {what}")
        print(f"ok  gate rejects {what}")

    case = gwgfem.get_case("cospi_cospi")
    mesh = gwgfem.build_uniform_triangular(8)
    sig = gwgfem.WeakSpaceSignature(*workload.element)
    params = gwgfem.SchemeParameters(rho=workload.rho, gamma=workload.gamma)
    system = gwgfem.assemble(mesh, sig, params, case.f, case.g)
    u_h = gwgfem.solve(system)
    expect(not residual_problems(8, rel_residual(system, u_h)), "gate rejects a good solve")
    u_h.coeffs[system.free[::7]] *= 1.0 + 1e-6
    expect(residual_problems(8, rel_residual(system, u_h)), "gate accepts a perturbed solution")
    print("ok  gate rejects a perturbed solution vector")


def main() -> int:
    check_gate(import_gwgfem())
    check_metrics()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
