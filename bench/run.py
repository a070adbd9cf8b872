"""nlschwarz benchmark runner.

    python3 bench/run.py --workload ldc-hybrid-4x4 --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60

Runs `bench/probe.py` one process at a time, each process one `run_point`
call of the workload's config, until a process of average length would
overrun ``--seconds`` (at least one; with ``--trace 1`` at least two).  Every
process gets the same pinned thread settings and its output is checked.

``--trace 0`` reports the end-to-end metrics as medians over the processes;
each process adds `SETUP_PASSES` set-up-only calls to the ``setup_s`` samples.
``--trace 1`` makes the first process of each workload a traced one and
reports its per-layer metrics; the later, untraced processes give the
baseline for ``trace.overhead_s``.

The workloads are fixed PDE configurations: changing the Reynolds number or
the mesh would change the iteration counts the benchmark pins.  So the seed
does not alter any input.  It is recorded, and with ``--workload all`` it
shuffles the order in which the processes of the workloads are interleaved.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, the run environment and the reason
for every failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NLSCHWARZ_WORKERS": "2"}
SETUP_PASSES = 4
# a probe takes about 10 s; the whole run must end within 180 s
CHILD_TIMEOUT_S = 120

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "outer_its": "count", "gmres_its": "count"}


def layer_unit(name: str) -> str:
    if name.endswith("us_per_elem"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("parallel_eff", "accounted_frac")):
        return "ratio"
    return "count"


def git_sha() -> str:
    """HEAD of the checkout, read from `.git` without running git, which
    would search parent directories when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_probe(workload: str, trace: bool, setup_passes: int) -> tuple[dict | None, str]:
    """One probe process; (its JSON result or None, failure reason)."""
    env = dict(os.environ, **PINNED_ENV, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(BENCH / "probe.py"), "--workload", workload,
           "--trace", str(int(trace)), "--setup-passes", str(setup_passes)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"probe exceeded {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"probe exited with {proc.returncode}: {tail[0]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"unreadable probe output: {lines[-1][:200]}"


def run_workloads(names: list[str], seconds: float, trace: bool,
                  rng: random.Random) -> dict:
    """Interleave probe processes of `names` in seeded random order; each
    workload gets `seconds` of probe wall time."""
    runs = {w: {"attempted": 0, "results": [], "failures": [], "spent": 0.0}
            for w in names}
    order = []

    def open_(w):
        r = runs[w]
        if r["attempted"] < (2 if trace else 1):
            return True
        # another probe of the average length so far must still fit
        return r["spent"] + r["spent"] / r["attempted"] <= seconds

    while True:
        candidates = [w for w in names if open_(w)]
        if not candidates:
            return {"runs": runs, "order": order}
        w = rng.choice(candidates)
        r = runs[w]
        traced = trace and r["attempted"] == 0
        t0 = time.perf_counter()
        result, reason = run_probe(w, traced, 0 if trace else SETUP_PASSES)
        dt = time.perf_counter() - t0
        r["attempted"] += 1
        r["spent"] += dt
        order.append(w)
        if result is None:
            r["failures"].append(reason)
            continue
        result["traced"] = traced
        if not result["ok"]:
            r["failures"].append(f"output check: {result['reason']}")
        r["results"].append(result)


def end_to_end(results: list[dict]) -> dict:
    m = {k: statistics.median(r[k] for r in results)
         for k in END_TO_END if k != "setup_s"}
    m["setup_s"] = statistics.median(s for r in results for s in r["setup_s"])
    return {k: {"value": m[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(results: list[dict]) -> dict:
    traced = [r for r in results if r["traced"]]
    plain = [r["solve_s"] for r in results if not r["traced"]]
    if not traced or not plain:
        return {}
    t = traced[0]
    m = dict(t["layers"])
    m["report.inner_its_avg"] = t["inner_its_avg"]
    m["report.coarse_its"] = t["coarse_its"]
    m["trace.overhead_s"] = t["solve_s"] - statistics.median(plain)
    return {k: {"value": float(v), "unit": layer_unit(k)}
            for k, v in sorted(m.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nlschwarz benchmark runner")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the
    # probe it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "nlschwarz" / "__init__.py").is_file():
        print(f"error: no nlschwarz sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    done = run_workloads(names, args.seconds, bool(args.trace),
                         random.Random(args.seed))
    attempted = failed = 0
    metrics, versions = {}, {}
    for w in names:
        r = done["runs"][w]
        attempted += r["attempted"]
        failed += len(r["failures"])
        for reason in r["failures"]:
            print(f"FAILED {w}: {reason}")
        print(f"{w:24s} {'failed_frac':36s} "
              f"{len(r['failures']) / r['attempted']:.6g} ratio")
        if not r["results"]:
            continue
        versions = r["results"][0]["versions"]
        print(f"# samples {w}: " + json.dumps(
            {k: [x[k] for x in r["results"]] for k in ("solve_s", "setup_s")}))
        got = per_layer(r["results"]) if args.trace else end_to_end(r["results"])
        prefix = "" if len(names) == 1 else f"{w}/"
        for k, v in got.items():
            print(f"{w:24s} {k:36s} {v['value']:.6g} {v['unit']}")
            metrics[prefix + k] = v
    print("# env " + json.dumps({
        "git_sha": git_sha(), "nproc": os.cpu_count(), **versions,
        "pinned": PINNED_ENV, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "order": done["order"]}))
    if not metrics:
        print("error: no run produced measurements", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
