"""One measured `run_point` call in a fresh process, with its output check.

    PYTHONPATH=src python3 bench/probe.py --workload ldc-hybrid-4x4 [--trace 1]

prints one JSON line: solve and set-up wall times, peak RSS, the iteration
counts of the `SolveReport`, the result of the output check and, with
``--trace 1``, the per-layer metrics.  `bench/run.py` starts this script once
per sample, with the thread settings pinned before numpy loads; the peak RSS
is the process high-water mark, so it only describes one run per process.

The output check recomputes ||F(u)|| with `assemble_residual` on the solution
handed back by the solve function, requires it to meet the outer tolerance, and
compares the solution with the fingerprint recorded in `fingerprints.json`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import (SOLVE_FUNCTIONS, Patches, Tracer, install_layer_spans,
                   install_solve_capture, layer_metrics)

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# `nlschwarz run` configs; everything not given stays at the CLI default
# (overlap 2, exact tangent, ldc_config tolerances).
WORKLOADS = {
    "ldc-hybrid-4x4": {"problem": "ldc", "re": 400, "subdomains": [4, 4],
                       "hh": 10, "variant": "hybrid", "coarse": "rgdsw"},
    "ldc-nks-4x4": {"problem": "ldc", "re": 400, "subdomains": [4, 4],
                    "hh": 10, "variant": "nks", "coarse": "rgdsw"},
}

FINGERPRINT_SAMPLES = 32


def fingerprint(u) -> dict:
    """Solution values at evenly spaced DOF ids, and the RMS of the whole."""
    import numpy as np
    idx = np.linspace(0, u.size - 1, FINGERPRINT_SAMPLES).round().astype(int)
    return {"n_dofs": int(u.size), "rms": float(np.sqrt(np.mean(u * u))),
            "samples": [float(v) for v in u[idx]]}


def load_fingerprints() -> dict:
    with open(BENCH / "fingerprints.json") as f:
        return json.load(f)


def check_output(captured: dict, reference: dict | None,
                 factor: float) -> dict:
    """Converged flag, independent ||F(u)|| against the outer tolerance and,
    if a reference is given, the fingerprint within `factor` times the outer
    relative tolerance, scaled by the largest reference value or RMS."""
    import numpy as np
    from nlschwarz import assembly as asm

    problem, mesh, dofmap, _, scfg = captured["args"][:5]
    u, rep = captured["solution"], captured["report"]
    res = float(np.linalg.norm(asm.assemble_residual(problem, mesh, dofmap, u)))
    res0 = float(np.linalg.norm(asm.assemble_residual(
        problem, mesh, dofmap, asm.initial_iterate(problem, dofmap))))
    tol = max(scfg.outer.rel_tol * res0, scfg.outer.abs_tol)
    out = {"n_dofs": int(u.size), "residual": res, "residual_tol": tol}
    reasons = []
    if not rep.converged:
        reasons.append(f"not converged: {rep.reason}")
    if not res <= tol:
        reasons.append(f"||F(u)|| = {res:.3e} exceeds the outer tolerance "
                       f"{tol:.3e}")
    if reference is not None:
        fp = fingerprint(u)
        scale = max(max(abs(v) for v in reference["samples"]),
                    reference["rms"])
        fp_tol = factor * scfg.outer.rel_tol * scale
        if fp["n_dofs"] != reference["n_dofs"]:
            reasons.append(f"{fp['n_dofs']} DOFs, fingerprint has "
                           f"{reference['n_dofs']}")
        else:
            dev = max(abs(fp["rms"] - reference["rms"]),
                      max(abs(a - b) for a, b in zip(fp["samples"],
                                                      reference["samples"])))
            out["fingerprint_dev"] = dev
            out["fingerprint_tol"] = fp_tol
            if not dev <= fp_tol:
                reasons.append(f"solution differs from the fingerprint by "
                               f"{dev:.3e} > {fp_tol:.3e}")
    out["ok"] = not reasons
    out["reason"] = "; ".join(reasons)
    return out


class _SetupDone(Exception):
    pass


def time_setup(cfg: dict) -> float:
    """Wall time of `run_point` up to the call of the solve function."""
    from nlschwarz import cli

    def stop(*args, **kwargs):
        raise _SetupDone

    patches = Patches()
    for name in SOLVE_FUNCTIONS:
        patches.wrap(cli, name, lambda fn: stop)
    t0 = time.perf_counter()
    try:
        cli.run_point(cfg, {})
    except _SetupDone:
        pass
    finally:
        patches.restore()
    return time.perf_counter() - t0


def measure(cfg: dict, trace: bool, setup_passes: int = 0,
            reference: dict | None = None, factor: float = 0.0) -> dict:
    """One full `run_point` call, then `setup_passes` set-up-only calls."""
    import numpy
    import scipy
    from nlschwarz import cli

    tracer, patches, captured = Tracer(), Patches(), {}
    install_solve_capture(patches, tracer, captured)
    if trace:
        install_layer_spans(patches, tracer)
    try:
        t0 = time.perf_counter()
        cli.run_point(cfg, {})
        wall = time.perf_counter() - t0
    finally:
        patches.restore()
    if "span" not in captured:
        raise RuntimeError("run_point called no solve function; wrappers "
                           f"missing for {patches.missing}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rep = captured["report"]
    solve_s = captured["span"].duration
    out = {"solve_s": solve_s, "setup_s": [wall - solve_s],
           "peak_rss_mb": peak_mb,
           "outer_its": rep.outer_iterations, "gmres_its": rep.total_gmres,
           "inner_its_avg": rep.avg_inner, "coarse_its": rep.total_coarse,
           "versions": {"python": sys.version.split()[0],
                        "numpy": numpy.__version__, "scipy": scipy.__version__},
           "missing_wrappers": patches.missing}
    out.update(check_output(captured, reference, factor))
    if trace:
        out["layers"] = layer_metrics(tracer)
    captured.clear()
    out["setup_s"] += [time_setup(cfg) for _ in range(setup_passes)]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-passes", type=int, default=0)
    args = ap.parse_args(argv)
    try:
        import nlschwarz
        if SRC.resolve() not in Path(nlschwarz.__file__).resolve().parents:
            raise ImportError(f"nlschwarz imported from {nlschwarz.__file__}, "
                              f"not from {SRC}")
        fps = load_fingerprints()
        result = measure(WORKLOADS[args.workload], bool(args.trace),
                         args.setup_passes, fps["solutions"][args.workload],
                         fps["tolerance_factor"])
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
