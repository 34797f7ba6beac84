"""One benchmark worker process: set up, then run studies for a time budget.

Started by run.py as a fresh process for every set-up sample and for every
measured run, so import and warm-up cost and peak memory belong to it alone.
Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gate import rel_residual, report_problems, residual_problems
from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def import_gwgfem():
    """Import gwgfem from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gwgfem

    if Path(gwgfem.__file__).resolve().parent.parent != src:
        raise SystemExit(f"gwgfem imported from {gwgfem.__file__}, not from {src}")
    return gwgfem


class Calibration:
    """A fixed numpy/scipy kernel timed between studies to track machine speed.

    On a shared 2-core host the speed of the same code drifts by +-20% over
    tens of seconds.  Dividing each study's time by the kernel's time around
    it removes most of that drift; the kernel does not touch gwgfem, so
    only changes to gwgfem move the ratio.  It mixes a sparse LU (like the
    solve) with a Python loop over array keys (like mesh and shape-class
    set-up).
    """

    def __init__(self):
        n = 160
        T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        I = sp.eye(n)
        self.A = (sp.kron(I, T) + sp.kron(T, I)).tocsc()
        self.b = np.ones(self.A.shape[0])
        self.keys = np.random.default_rng(0).integers(0, 64, (20000, 3))

    def timed(self) -> float:
        start = time.perf_counter()
        spla.splu(self.A).solve(self.b)
        seen = {}
        for row in self.keys:
            seen.setdefault(row.tobytes(), len(seen))
        return time.perf_counter() - start


class Study:
    """One workload on one manufactured case, run through the public API."""

    def __init__(self, gwgfem, workload, case_name: str):
        self.g = gwgfem
        self.workload = workload
        self.case_name = case_name
        self.case = gwgfem.get_case(case_name)
        self.signature = gwgfem.WeakSpaceSignature(*workload.element)
        self.params = gwgfem.SchemeParameters(rho=workload.rho, gamma=workload.gamma)

    def run(self, levels=None):
        w = self.workload
        return self.g.run_convergence_study(
            self.case, w.mesh_family, levels or w.levels, self.signature, self.params
        )

    def timed(self) -> dict:
        """The untraced run: times the run_convergence_study call itself."""
        start = time.perf_counter()
        try:
            report = self.run()
        except Exception as err:  # a raising study counts as failed
            return {"study_s": None, "problems": [f"raised {type(err).__name__}: {err}"]}
        elapsed = time.perf_counter() - start
        last = report.rows[-1]
        return {
            "study_s": elapsed,
            "problems": report_problems(self.workload, self.case_name, report),
            "finest_errors": [last.energy_err, last.l2_err, last.edge_err],
        }

    def _mesh(self, label: int):
        if self.workload.mesh_family == "tri":
            return self.g.build_uniform_triangular(label)
        return self.g.build_uniform_rectangular(int(round(math.log2(label // 4))))

    def traced(self, tracer: Tracer, study: int) -> dict:
        """The six calls run_convergence_study makes, level by level, in spans.

        The residual and size counts are the benchmark's own work; they sit
        in "bench.check" spans that the traced total leaves out.
        """
        g, case, sig, params = self.g, self.case, self.signature, self.params
        rows, residuals, problems, counts = [], [], [], {}
        try:
            with tracer.span("study", study):
                for label in self.workload.levels:
                    with tracer.span("mesh.build", study, label):
                        mesh = self._mesh(label)
                    with tracer.span("weakspace.cache", study, label):
                        cache = g.OperatorCache(mesh, sig)
                    with tracer.span("assembly.assemble", study, label):
                        system = g.assemble(
                            mesh, sig, params, case.f, case.g,
                            cache=cache, singularity=case.singularity,
                        )
                    with tracer.span("assembly.solve", study, label):
                        u_h = g.solve(system)
                    with tracer.span("bench.check", study, label):
                        residual = rel_residual(system, u_h)
                        residuals.append(residual)
                        problems += residual_problems(label, residual)
                        A = system.A
                        counts = {
                            "mesh.n_elements": mesh.n_elements,
                            "mesh.n_edges": mesh.n_edges,
                            "weakspace.n_classes": len(cache.class_ops),
                            "weakspace.n_dofs": cache.dofmap.total,
                            "assembly.n_free": A.shape[0],
                            "assembly.nnz": A.nnz,
                            "assembly.matrix_bytes": (
                                A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
                            ),
                        }
                    with tracer.span("verify.error", study, label):
                        e_h = g.error_function(case, u_h, cache)
                    with tracer.span("verify.norms", study, label):
                        errors = (
                            g.energy_norm(e_h, params, cache),
                            g.l2_norm_e0(e_h, cache),
                            g.edge_norm_eb(e_h, cache),
                        )
                    rows.append(g.LevelResult(label, mesh.h_max, cache.dofmap.total, *errors))
        except Exception as err:  # a raising study counts as failed
            problems.append(f"raised {type(err).__name__}: {err}")
        else:
            report = g.ErrorReport(case.name, self.workload.mesh_family, sig, params, rows)
            problems += report_problems(self.workload, self.case_name, report)
        return {"problems": problems, "residuals": residuals, "counts": counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--case", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    gwgfem = import_gwgfem()
    workload = WORKLOADS[args.workload]
    study = Study(gwgfem, workload, args.case)
    study.run(workload.levels[:2])  # warm-up: fills the lru_cache'd quadrature tables
    out = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    calibration = Calibration()
    calib_s = [calibration.timed()]  # calib_s[i], calib_s[i + 1] bracket study i
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(study.timed())
        if tracer is not None:
            traced.append(study.traced(tracer, len(traced)))
        calib_s.append(calibration.timed())
    out.update(
        untraced=untraced,
        calib_s=calib_s,
        traced=traced,
        spans=tracer.spans if tracer is not None else [],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"numpy": np.__version__, "scipy": scipy.__version__},
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
