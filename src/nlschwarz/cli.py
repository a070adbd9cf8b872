"""Batch front end: configured solver runs, sweeps and machine-readable output.

``nlschwarz run config.json [overrides]`` executes every point of the sweep
defined by the config (cartesian product of the list-valued fields among
``re``, ``fy``, ``subdomains``, ``variant``, ``coarse``) and writes, per
point, a JSON summary record and a CSV convergence history into the output
directory.  The history has one row per outer Newton step; its columns are
``iteration`` and the fields of `outer.OuterStep`, in their order.
``nlschwarz export-coarse config.json --entity K`` writes the coarse-basis
columns of one interface entity as node values; a column that is not one
field's (a beam rigid-body mode) is written once per field.

Config schema (JSON object; every field optional unless noted):

    problem      "ldc" | "beam" | "diffusion"        (required)
    re           number or list   (ldc Reynolds numbers)
    fy           number or list   (beam loads, MN/m^2)
    coefficient  "constant" | "nonlinear"  (diffusion law)
    subdomains   [px, py] or list of such pairs
    hh           elements per subdomain per direction (H/h)
    overlap      dual-graph overlap layers for nonlinear Schwarz; NKS uses
                 max(1, overlap // 2) nodal layers
    variant      "aspen" | "raspen" | "additive" | "hybrid" | "nks" or list
    coarse       "gdsw" | "rgdsw" | "msfem" or list
    modified     bool (Dirichlet-edge modification of the reduced spaces)
    tangent      "exact" | "aspin"
    out          output directory (default "results")
    solver       {"outer"|"inner"|"coarse": {rel_tol, abs_tol, max_iter,
                 line_search}, "gmres": {rel_tol, max_iter, restart}};
                 gmres max_iter is an integer >= 1 and rounds up to whole
                 restart cycles, restart an integer >= 0 or null (0 and
                 null: no restart)

A key the schema does not list, at the top level or in a solver level, is an
error.  The domain is the unit square, and [0, 5] x [0, 1] for the beam.

Flag overrides: --problem --re --fy --subdomains PXxPY --hh --overlap
--variant --coarse --modified --out.  The number of processes that own
subdomains is read from the environment variable NLSCHWARZ_WORKERS (default
1); a value that is not a positive integer ends `run` with exit code 2.  The
calling process is one of them, and each runs the local work of the
subdomains it owns (see `owners`): the local Newton solves,
factorizations and tangent solves of nonlinear Schwarz, or the
factorizations and solves of the NKS preconditioner's blocks.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import re
import sys
import traceback
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import assembly as asm
from . import coarse as crs
from . import mesh as msh
from .outer import (OuterStep, SolveReport, SolverConfig, beam_config,
                    solve_nks, solve_nonlinear_schwarz)
from .owners import workers_from_env

HISTORY_COLUMNS = ["iteration"] + [f.name for f in fields(OuterStep)]

SWEEP_FIELDS = ("re", "fy", "subdomains", "variant", "coarse")

CONFIG_KEYS = {"problem", "re", "fy", "coefficient", "subdomains", "hh",
               "overlap", "variant", "coarse", "modified", "tangent", "out",
               "solver"}

# the fields each `solver` level of a config may set
SOLVER_FIELDS = {level: {f.name for f in fields(getattr(SolverConfig(), level))}
                 for level in ("outer", "inner", "coarse", "gmres")}


class ConfigError(ValueError):
    pass


def _load_config(path: str, overrides: argparse.Namespace) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {cfg!r}")
    solver = cfg.get("solver", {})
    if not (isinstance(solver, dict)
            and all(isinstance(v, dict) for v in solver.values())):
        raise ConfigError("config key solver must map each level to an "
                          f"object, got {solver!r}")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    for level, settings in sorted(solver.items()):
        allowed = SOLVER_FIELDS.get(level)
        unknown += ([f"solver.{level}"] if allowed is None else sorted(
            f"solver.{level}.{k}" for k in set(settings) - allowed))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    gmres = solver.get("gmres", {})
    for key, least in (("max_iter", 1), ("restart", 0)):
        val = gmres.get(key, least)
        if key == "restart" and val is None:
            continue
        if isinstance(val, bool) or not isinstance(val, int) or val < least:
            raise ConfigError(f"solver.gmres.{key} must be an integer of at "
                              f"least {least}, got {val!r}")
    for key in ("problem", "re", "fy", "hh", "overlap", "variant", "coarse",
                "modified", "out"):
        val = getattr(overrides, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    if getattr(overrides, "subdomains", None) is not None:
        counts = re.fullmatch(r"([1-9][0-9]*)x([1-9][0-9]*)",
                              overrides.subdomains)
        if counts is None:
            raise ConfigError("--subdomains must be PXxPY with positive "
                              f"integers, got {overrides.subdomains!r}")
        cfg["subdomains"] = [int(counts[1]), int(counts[2])]
    if "problem" not in cfg:
        raise ConfigError("config must set 'problem'")
    if cfg["problem"] not in ("ldc", "beam", "diffusion"):
        raise ConfigError(f"unknown problem {cfg['problem']!r}")
    return cfg


def _sweep_points(cfg: dict):
    """Cartesian product over the list-valued sweep fields."""
    axes = {}
    for f in SWEEP_FIELDS:
        if f not in cfg:
            continue
        v = cfg[f]
        if f == "subdomains":
            vals = v if v and isinstance(v[0], list) else [v]
        elif isinstance(v, list):
            vals = v
        else:
            vals = [v]
        axes[f] = vals
    if not axes:
        yield {}
        return
    keys = list(axes)
    for combo in itertools.product(*(axes[k] for k in keys)):
        yield dict(zip(keys, combo))


def _solver_config(cfg: dict, point: dict) -> SolverConfig:
    base = beam_config() if cfg["problem"] == "beam" else SolverConfig()
    for level, settings in cfg.get("solver", {}).items():
        setattr(base, level, replace(getattr(base, level), **settings))
    base.variant = point.get("variant", cfg.get("variant", base.variant))
    base.coarse_kind = point.get("coarse", cfg.get("coarse", base.coarse_kind))
    base.modified = bool(cfg.get("modified", base.modified))
    base.tangent_mode = cfg.get("tangent", base.tangent_mode)
    return base


def _build_case(cfg: dict, point: dict):
    problem_kind = cfg["problem"]
    domain = (0.0, 1.0, 0.0, 1.0)
    if problem_kind == "ldc":
        prob = asm.ldc_problem(float(point.get("re", cfg.get("re", 100.0))))
    elif problem_kind == "beam":
        prob = asm.beam_problem(float(point.get("fy", cfg.get("fy", 1.0))))
        domain = (0.0, 5.0, 0.0, 1.0)
    else:
        prob = asm.diffusion_problem(cfg.get("coefficient", "nonlinear"))
    px, py = point.get("subdomains", cfg.get("subdomains", [2, 2]))
    hh = int(cfg.get("hh", 10))
    mesh = msh.build_structured_mesh(px * hh, py * hh, domain=domain,
                                     problem_kind=problem_kind)
    dofmap = asm.build_dofmap(prob, mesh)
    return prob, mesh, dofmap, px, py


def _decompose(mesh, px, py, overlap, nks: bool):
    dec = msh.partition_structured(mesh, px, py)
    if nks:
        msh.extend_overlap(dec, msh.nodal_graph(mesh), max(1, overlap // 2))
    else:
        msh.extend_overlap(dec, msh.dual_graph(mesh), overlap)
    msh.ghost_layer(dec, msh.nodal_graph(mesh), mesh=mesh)
    return dec


def run_point(cfg: dict, point: dict) -> tuple[dict, SolveReport]:
    prob, mesh, dofmap, px, py = _build_case(cfg, point)
    scfg = _solver_config(cfg, point)
    variant = scfg.variant
    overlap = int(cfg.get("overlap", 2))
    dec = _decompose(mesh, px, py, overlap, nks=(variant == "nks"))
    needs_coarse = variant in ("nks", "additive", "hybrid")
    P0 = None
    if needs_coarse:
        P0, _, _ = crs.build_coarse_space(prob, mesh, dofmap, dec,
                                          scfg.coarse_kind, scfg.modified)
    if variant == "nks":
        sol, rep = solve_nks(prob, mesh, dofmap, dec, scfg, P0=P0)
    else:
        sol, rep = solve_nonlinear_schwarz(prob, mesh, dofmap, dec, scfg, P0=P0)

    record = {
        "problem": cfg["problem"],
        "variant": variant,
        "coarse": scfg.coarse_kind if needs_coarse else None,
        "modified": scfg.modified if needs_coarse else None,
        "num_subdomains": px * py,
        "subdomains": [px, py],
        "hh": int(cfg.get("hh", 10)),
        "overlap": overlap,
        "n_dofs": dofmap.n_dofs,
        "converged": rep.converged,
        "reason": rep.reason,
        "outer_iterations": rep.outer_iterations,
        "total_gmres": rep.total_gmres,
        "avg_inner": rep.avg_inner,
        "total_coarse": rep.total_coarse,
        "gmres_unconverged": sum(not st.gmres_converged for st in rep.steps),
        "corrections_unconverged": sum(not st.corrections_converged
                                       for st in rep.steps),
        "label": f"{rep.total_gmres} ({rep.outer_iterations})",
        "timings": rep.timings,
    }
    if cfg["problem"] == "ldc":
        record["re"] = prob.Re
    elif cfg["problem"] == "beam":
        record["fy"] = prob.f_y
    return record, rep


def _point_tag(cfg: dict, point: dict, index: int) -> str:
    bits = [cfg["problem"]]
    for k in SWEEP_FIELDS:
        if k in point:
            v = point[k]
            bits.append(f"{k}-{v[0]}x{v[1]}" if k == "subdomains" else f"{k}-{v}")
    bits.append(f"{index:03d}")
    return "_".join(str(b) for b in bits)


def emit_history(report: SolveReport, path) -> None:
    """One CSV row per `OuterStep`; row 0 is the initial residual.  Empty
    cells stand for None and for what row 0 has no value of."""
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, HISTORY_COLUMNS)
        w.writeheader()
        w.writerow({"iteration": 0, "rel_residual": 1.0, "gmres_its": 0,
                    "inner_avg": 0, "coarse_its": 0, "line_search_steps": 0})
        for k, step in enumerate(report.steps, 1):
            w.writerow({"iteration": k, **asdict(step)})


def cmd_run(args) -> int:
    try:
        cfg = _load_config(args.config, args)
        workers_from_env()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.get("out", "results"))
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for i, point in enumerate(_sweep_points(cfg)):
        tag = _point_tag(cfg, point, i)
        try:
            record, rep = run_point(cfg, point)
        except Exception as exc:
            # one failing point must not end the sweep: record it, go on
            traceback.print_exc()
            record = {"problem": cfg["problem"], "converged": False,
                      "reason": f"{type(exc).__name__}: {exc}", "label": "-"}
        else:
            record["history_file"] = f"{tag}.csv"
            emit_history(rep, out_dir / f"{tag}.csv")
        record["point"] = point
        with open(out_dir / f"{tag}.json", "w") as f:
            json.dump(record, f, indent=2)
        records.append(record)
        status = "ok" if record["converged"] else f"FAILED ({record['reason']})"
        print(f"{tag}: {record['label']} {status}")
    with open(out_dir / "summary.json", "w") as f:
        json.dump(records, f, indent=2)
    return 0


def cmd_export_coarse(args) -> int:
    try:
        cfg = _load_config(args.config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    point = next(_sweep_points(cfg))
    try:
        prob, mesh, dofmap, px, py = _build_case(cfg, point)
        scfg = _solver_config(cfg, point)
        dec = _decompose(mesh, px, py, int(cfg.get("overlap", 2)), nks=False)
        P0, ents, labels = crs.build_coarse_space(
            prob, mesh, dofmap, dec, scfg.coarse_kind, scfg.modified)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    k = args.entity
    if not 0 <= k < len(ents):
        print(f"error: entity {k} out of range (0..{len(ents) - 1})",
              file=sys.stderr)
        return 2
    # a column named after a field is written as that field's node values;
    # a beam rigid-body mode (tx, ty, rot) as both displacement components
    names = {fld.name: fld for fld in dofmap.fields}
    header = ["node", "x", "y"]
    columns = [range(mesh.n_nodes), mesh.nodes[:, 0].tolist(),
               mesh.nodes[:, 1].tolist()]
    cols = [c for c, (e, _) in enumerate(labels) if e == k]
    dense = P0[:, cols].toarray()
    for c_i, c in enumerate(cols):
        label = labels[c][1]
        for fld in [names[label]] if label in names else dofmap.fields:
            header.append(label if label in names else f"{label}_{fld.name}")
            columns.append(
                dense[fld.offset:fld.offset + mesh.n_nodes, c_i].tolist())
    out = Path(cfg.get("out", "results"))
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"coarse_entity_{k}.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(zip(*columns))
    print(f"wrote {path} ({ents[k].kind} entity, {len(cols)} modes)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="nlschwarz",
                                 description="nonlinear Schwarz solver runs")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_overrides(p):
        p.add_argument("config")
        p.add_argument("--problem", choices=("ldc", "beam", "diffusion"))
        p.add_argument("--re", type=float)
        p.add_argument("--fy", type=float)
        p.add_argument("--subdomains", help="PXxPY, e.g. 4x4")
        p.add_argument("--hh", type=int)
        p.add_argument("--overlap", type=int)
        p.add_argument("--variant",
                       choices=("aspen", "raspen", "additive", "hybrid", "nks"))
        p.add_argument("--coarse", choices=("gdsw", "rgdsw", "msfem"))
        p.add_argument("--modified", action="store_const", const=True)
        p.add_argument("--out")

    pr = sub.add_parser("run", help="execute the configured sweep")
    add_overrides(pr)
    pr.set_defaults(func=cmd_run)

    pe = sub.add_parser("export-coarse", help="write coarse-basis node values")
    add_overrides(pe)
    pe.add_argument("--entity", type=int, required=True)
    pe.set_defaults(func=cmd_export_coarse)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
