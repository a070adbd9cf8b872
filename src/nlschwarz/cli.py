"""Batch front end: configured solver runs, sweeps and machine-readable output.

``nlschwarz run config.json [overrides]`` executes every point of the sweep
defined by the config (cartesian product of the list-valued fields among
``re``, ``fy``, ``subdomains``, ``variant``, ``coarse``; the points of
aspen and raspen, which have no coarse space, are not multiplied by
``coarse``) and writes, per point, a JSON summary record and a CSV
convergence history into the output directory.  The history has one row per outer Newton step; its columns are
``iteration`` and the fields of `outer.OuterStep`, in their order.
``nlschwarz export-coarse config.json --entity K`` writes the coarse-basis
columns of one interface entity as node values; a column that is not one
field's (a beam rigid-body mode) is written once per field.

Config schema (JSON object; every field optional unless noted; the
defaults of the case and output keys are in `DEFAULTS`, the others are the
problem's `SolverConfig`):

    problem      "ldc" | "beam" | "diffusion"        (required)
    re           number > 0 or list   (ldc only: Reynolds numbers)
    fy           number or list       (beam only: loads, MN/m^2)
    coefficient  "constant" | "nonlinear"  (diffusion only: the law)
    subdomains   [px, py], integers >= 1, or list of such pairs
    hh           elements per subdomain per direction (H/h), integer >= 1
    overlap      dual-graph overlap layers for nonlinear Schwarz, integer
                 >= 0; NKS uses max(1, overlap // 2) nodal layers
    variant      "aspen" | "raspen" | "additive" | "hybrid" | "nks" or list
    coarse       "gdsw" | "rgdsw" | "msfem" or list
    modified     bool (Dirichlet-edge modification of the reduced spaces)
    tangent      "exact" | "aspin"
    out          output directory, a string
    solver       {"outer"|"inner"|"coarse": {rel_tol, abs_tol, max_iter,
                 line_search}, "gmres": {rel_tol, max_iter, restart}};
                 rel_tol and abs_tol are finite numbers >= 0, max_iter an
                 integer >= 1 (for gmres rounded up to whole restart
                 cycles), line_search a bool, restart an integer >= 0 or
                 null (0 and null: no restart)

Every value is checked when the config loads, each value of a sweep list
included; re and fy must be finite numbers.  A key the schema does not
list, at the top level or in a solver level, a problem key (re, fy,
coefficient) that the problem does not read, an empty list of a sweep
field, a variant, coarse, tangent or coefficient that is not one the
schema lists, and any other value outside its type or range end the
command with exit code 2 before any point runs or the output directory is
made.  A point that fails at run time, as a single subdomain does under a
two-level variant, is recorded as failed and the sweep goes on.  The domain
is the unit square, and [0, 5] x [0, 1] for the beam.

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
import math
import re
import sys
import traceback
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import assembly as asm
from . import coarse as crs
from . import mesh as msh
from . import schwarz
from .outer import (OuterStep, SolveReport, SolverConfig, beam_config,
                    solve_nks, solve_nonlinear_schwarz)
from .owners import workers_from_env

HISTORY_COLUMNS = ["iteration"] + [f.name for f in fields(OuterStep)]

VARIANTS = (*schwarz.VARIANTS, "nks")
# the variants without a coarse space
ONE_LEVEL = ("aspen", "raspen")

SWEEP_FIELDS = ("re", "fy", "subdomains", "variant", "coarse")

CONFIG_KEYS = {"problem", "re", "fy", "coefficient", "subdomains", "hh",
               "overlap", "variant", "coarse", "modified", "tangent", "out",
               "solver"}

# the fields each `solver` level of a config may set
SOLVER_FIELDS = {level: {f.name for f in fields(getattr(SolverConfig(), level))}
                 for level in ("outer", "inner", "coarse", "gmres")}

# the one problem that reads each problem key
PROBLEM_KEYS = {"re": "ldc", "fy": "beam", "coefficient": "diffusion"}

# the value of each case and output key a config leaves out; the other
# keys default to the problem's `SolverConfig`
DEFAULTS = {"re": 100.0, "fy": 1.0, "coefficient": "nonlinear",
            "subdomains": (2, 2), "hh": 10, "overlap": 2, "out": "results"}


class ConfigError(ValueError):
    pass


def _setting(cfg: dict, point: dict, key: str):
    """The point's value of `key`, else the config's, else the default."""
    return point.get(key, cfg.get(key, DEFAULTS[key]))


def _axis(key: str, val) -> list:
    """The values of the sweep field `key`: its list or its one value; a
    subdomains list is one of pairs."""
    many = isinstance(val, list) and (
        key != "subdomains" or not val or isinstance(val[0], list))
    return val if many else [val]


def _count(least: int):
    return lambda v: isinstance(v, int) and not isinstance(v, bool) \
        and v >= least


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _one_of(choices: tuple) -> tuple:
    return f"one of {', '.join(choices)}", lambda v: v in choices


def _each(what: str, test) -> tuple:
    """The rule of a sweep field other than subdomains: one value that
    passes `test` or a non-empty list of such."""
    def each(v):
        values = v if isinstance(v, list) else [v]
        return values != [] and all(map(test, values))
    return f"{what} or a non-empty list of such", each


# what the value of a config key or a solver setting must be, and the test
# of it
RULES = {
    "re": _each("a finite number above 0", lambda v: _number(v) and v > 0),
    "fy": _each("a finite number", _number),
    "variant": _each(*_one_of(VARIANTS)),
    "coarse": _each(*_one_of(crs.COARSE_KINDS)),
    "tangent": _one_of(schwarz.TANGENT_MODES),
    "coefficient": _one_of(asm.DIFFUSION_LAWS),
    "out": ("a string", lambda v: isinstance(v, str)),
    "subdomains": ("a [px, py] pair of positive integers or a non-empty "
                   "list of such pairs", lambda v: v != [] and all(
                       isinstance(p, list) and len(p) == 2
                       and all(map(_count(1), p)) for p in _axis(
                           "subdomains", v))),
    **dict.fromkeys(("modified", "line_search"), (
        "a bool", lambda v: isinstance(v, bool))),
    **dict.fromkeys(("rel_tol", "abs_tol"), (
        "a finite number of at least 0", lambda v: _number(v) and v >= 0)),
    **dict.fromkeys(("hh", "max_iter"), ("an integer of at least 1",
                                         _count(1))),
    "overlap": ("an integer of at least 0", _count(0)),
    "restart": ("an integer of at least 0",
                lambda v: v is None or _count(0)(v)),
}


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
    if cfg["problem"] not in msh.PROBLEM_KINDS:
        raise ConfigError(f"unknown problem {cfg['problem']!r}")
    checks = [(f"solver.{level}.{key}", key, val)
              for level, settings in sorted(solver.items())
              for key, val in sorted(settings.items())]
    checks += [(f"config key {key}", key, cfg[key])
               for key in (*SWEEP_FIELDS, "hh", "overlap", "modified",
                           "tangent", "coefficient", "out")
               if key in cfg]
    for name, key, val in checks:
        what, test = RULES[key]
        if not test(val):
            raise ConfigError(f"{name} must be {what}, got {val!r}")
    for key, problem in PROBLEM_KEYS.items():
        if key in cfg and cfg["problem"] != problem:
            raise ConfigError(f"config key {key} is read by problem {problem} "
                              f"only, not by {cfg['problem']}")
    return cfg


def _sweep_points(cfg: dict):
    """Cartesian product over the list-valued sweep fields, each point
    once: the points of a one-level variant have no coarse space."""
    axes = {f: _axis(f, cfg[f]) for f in SWEEP_FIELDS if f in cfg}
    points = []
    for combo in itertools.product(*axes.values()):
        point = dict(zip(axes, combo))
        if point.get("variant") in ONE_LEVEL:
            point.pop("coarse", None)
        if point not in points:
            points.append(point)
            yield point


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
        prob = asm.ldc_problem(float(_setting(cfg, point, "re")))
    elif problem_kind == "beam":
        prob = asm.beam_problem(float(_setting(cfg, point, "fy")))
        domain = (0.0, 5.0, 0.0, 1.0)
    else:
        prob = asm.diffusion_problem(_setting(cfg, point, "coefficient"))
    px, py = _setting(cfg, point, "subdomains")
    hh = _setting(cfg, point, "hh")
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
    return msh.ghost_layer(dec, mesh)


def run_point(cfg: dict, point: dict) -> tuple[dict, SolveReport]:
    prob, mesh, dofmap, px, py = _build_case(cfg, point)
    scfg = _solver_config(cfg, point)
    variant = scfg.variant
    overlap = _setting(cfg, point, "overlap")
    dec = _decompose(mesh, px, py, overlap, nks=(variant == "nks"))
    needs_coarse = variant not in ONE_LEVEL
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
        "hh": _setting(cfg, point, "hh"),
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
    out_dir = Path(_setting(cfg, {}, "out"))
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
        # the first point of any variant's sweep: the basis is not the
        # variant's, and a one-level point has no coarse space
        point = next(_sweep_points(dict(cfg, variant="hybrid")))
        prob, mesh, dofmap, px, py = _build_case(cfg, point)
        scfg = _solver_config(cfg, point)
        dec = _decompose(mesh, px, py, _setting(cfg, point, "overlap"),
                         nks=False)
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
    out = Path(_setting(cfg, {}, "out"))
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
        p.add_argument("--problem", choices=msh.PROBLEM_KINDS)
        p.add_argument("--re", type=float)
        p.add_argument("--fy", type=float)
        p.add_argument("--subdomains", help="PXxPY, e.g. 4x4")
        p.add_argument("--hh", type=int)
        p.add_argument("--overlap", type=int)
        p.add_argument("--variant", choices=VARIANTS)
        p.add_argument("--coarse", choices=crs.COARSE_KINDS)
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
