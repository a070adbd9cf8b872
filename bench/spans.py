"""In-memory spans around nlschwarz's layer boundaries, recorded from outside.

`Patches` swaps a function or method for a wrapper and puts the original back
on `restore()`; `install_solve_capture` and `install_layer_spans` use it so the
package source stays untouched.  Wrappers go where the callers look names up:

* ``outer`` and ``schwarz`` import ``factorize``, ``gmres`` and
  ``backtracking_step`` by name, and ``cli`` imports both solve functions by
  name, so those are wrapped in the importing module's namespace;
* ``assemble_*``, the mesh functions and ``build_coarse_space`` are called
  through their module (``asm.``, ``msh.``, ``crs.``) and are wrapped there;
* ``Factorization.solve`` and the ``SchwarzOperator`` methods are wrapped on
  the class.

A name that no longer exists is skipped and listed in ``Patches.missing``, so
a refactor shows up as a zero metric rather than a crash.

Each thread keeps its own stack of open spans, so a span's parent is always on
its own thread: local corrections run on the operator's worker threads and
start trees of their own there.  `layer_metrics` derives the per-layer numbers
from the finished spans.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

MESH_FUNCTIONS = ("build_structured_mesh", "partition_structured", "dual_graph",
                  "nodal_graph", "extend_overlap", "ghost_layer",
                  "interface_skeleton")
SOLVE_FUNCTIONS = ("solve_nonlinear_schwarz", "solve_nks")


@dataclass
class Span:
    id: int
    name: str
    thread: int
    parent: int | None
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Records finished spans; open spans live on a per-thread stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, threading.get_ident(),
                    stack[-1].id if stack else None, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def traced(self, name: str, fn, on_args=None, on_result=None):
        """`fn` inside a span.  `on_args(span, args, kwargs)` may return
        replacement (args, kwargs); `on_result(span, result, args, kwargs)`
        records attributes of the outcome."""
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                if on_args is not None:
                    args, kwargs = on_args(span, args, kwargs)
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, result, args, kwargs)
                return result
            finally:
                self.close(span)
        return wrapper


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install_solve_capture(patches: Patches, tracer: Tracer, captured: dict) -> None:
    """Span the solve function `run_point` calls and keep the span, its
    arguments and its (solution, report) result in `captured`."""
    from nlschwarz import cli

    def keep(span, result, args, kwargs):
        captured["span"] = span
        captured["args"] = args
        captured["solution"], captured["report"] = result

    for name in SOLVE_FUNCTIONS:
        patches.wrap(cli, name, lambda fn: tracer.traced("outer.solve", fn,
                                                          on_result=keep))


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _count_evals(span, args, kwargs):
    """on_args hook of `backtracking_step`: count the calls of its first
    argument, the trial-residual callback, in ``span.attrs["evals"]``."""
    fn = args[0]
    span.attrs["evals"] = 0

    def counted(*a, **k):
        span.attrs["evals"] += 1
        return fn(*a, **k)
    return (counted,) + tuple(args[1:]), kwargs


def install_layer_spans(patches: Patches, tracer: Tracer) -> None:
    """Span every public boundary of mesh, assembly, coarse, sparse, schwarz
    and outer that a `run_point` call crosses."""
    from nlschwarz import assembly, coarse, mesh, outer, schwarz, sparse

    for name in MESH_FUNCTIONS:
        patches.wrap(mesh, name,
                     lambda fn, n=name: tracer.traced(f"mesh.{n}", fn))

    def assembled(span, result, args, kwargs):
        subset = _arg(args, kwargs, 4, "subset")
        span.attrs["sub"] = subset is not None
        span.attrs["elems"] = (len(subset) if subset is not None
                               else args[1].n_elements)
    for kind in ("tangent", "residual"):
        patches.wrap(assembly, f"assemble_{kind}",
                     lambda fn, k=kind: tracer.traced(f"assembly.{k}", fn,
                                                      on_result=assembled))

    def coarse_space(span, result, args, kwargs):
        P0 = result[0]
        span.attrs["dim"] = P0.shape[1]
        span.attrs["nnz"] = P0.nnz
    patches.wrap(coarse, "build_coarse_space",
                 lambda fn: tracer.traced("coarse.build", fn,
                                          on_result=coarse_space))

    for owner in (outer, schwarz):
        patches.wrap(owner, "factorize",
                     lambda fn: tracer.traced("sparse.factorize", fn))
    patches.wrap(sparse.Factorization, "solve",
                 lambda fn: tracer.traced("sparse.trisolve", fn))

    def gmres_callbacks(span, args, kwargs):
        args = (tracer.traced("sparse.gmres.apply", args[0]),) + tuple(args[1:])
        if kwargs.get("left_prec") is not None:
            kwargs = dict(kwargs, left_prec=tracer.traced("sparse.gmres.prec",
                                                          kwargs["left_prec"]))
        return args, kwargs

    def gmres_outcome(span, result, args, kwargs):
        span.attrs["its"] = result[1]
        span.attrs["converged"] = bool(result[2])
    patches.wrap(outer, "gmres",
                 lambda fn: tracer.traced("sparse.gmres", fn,
                                          on_args=gmres_callbacks,
                                          on_result=gmres_outcome))

    def newton_outcome(span, result, args, kwargs):
        span.attrs["its"] = result.iterations
        span.attrs["converged"] = bool(result.converged)

    def workers(span, result, args, kwargs):
        span.attrs["workers"] = getattr(args[0], "workers", 1)
    op = schwarz.SchwarzOperator
    for attr, name, hook in (("evaluate", "schwarz.evaluate", None),
                             ("_run_locals", "schwarz.run_locals", workers),
                             ("local_correction", "schwarz.local", newton_outcome),
                             ("coarse_correction", "schwarz.coarse", newton_outcome),
                             ("apply_tangent", "schwarz.apply_tangent", None)):
        patches.wrap(op, attr, lambda fn, n=name, h=hook:
                     tracer.traced(n, fn, on_result=h))

    patches.wrap(schwarz, "backtracking_step",
                 lambda fn: tracer.traced("schwarz.ls", fn,
                                          on_args=_count_evals))
    patches.wrap(outer, "backtracking_step",
                 lambda fn: tracer.traced("outer.ls", fn,
                                          on_args=_count_evals))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children share their parent's thread, and a thread runs one span at a
    time, so siblings never overlap and their durations simply add up."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def _outermost(spans: list[Span], prefix: str) -> list[Span]:
    """Spans named `prefix`* with no ancestor of that name, so nested calls
    within one layer are not counted twice."""
    by_id = {s.id: s for s in spans}

    def nested(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name.startswith(prefix):
                return True
            p = by_id.get(p.parent)
        return False
    return [s for s in spans if s.name.startswith(prefix) and not nested(s)]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of one traced `run_point` call.

    Set-up layers (mesh, coarse space) are summed over the whole call; every
    other layer only over spans inside the solve, on any thread."""
    spans = tracer.spans
    solve = [s for s in spans if s.name == "outer.solve"]
    if len(solve) != 1:
        raise ValueError(f"expected one solve span, found {len(solve)}")
    solve = solve[0]
    inside = [s for s in spans if solve.t0 <= s.t0 and s.t1 <= solve.t1]
    selfs = self_times(spans)

    def named(name, among=inside):
        return [s for s in among if s.name == name]

    def total(group):
        return float(sum(s.duration for s in group))

    def attr_sum(group, key):
        return float(sum(s.attrs.get(key, 0) for s in group))

    def failures(group):
        return float(sum(not s.attrs.get("converged", True) for s in group))

    m: dict[str, float] = {}
    m["mesh.setup_s"] = total(_outermost(spans, "mesh."))

    for kind in ("tangent", "residual"):
        calls = named(f"assembly.{kind}")
        for scope, sub in (("sub", True), ("glob", False)):
            group = [s for s in calls if s.attrs.get("sub") == sub]
            m[f"assembly.{kind}_{scope}.calls"] = float(len(group))
            m[f"assembly.{kind}_{scope}.s"] = total(group)
            if kind == "tangent" and sub:
                elems = attr_sum(group, "elems")
                m["assembly.tangent_sub.us_per_elem"] = (
                    1e6 * total(group) / elems if elems else 0.0)

    builds = named("coarse.build", spans)
    m["coarse.build_s"] = total(builds)
    m["coarse.dim"] = attr_sum(builds, "dim")
    m["coarse.nnz"] = attr_sum(builds, "nnz")

    for short, name in (("factorize", "sparse.factorize"),
                        ("trisolve", "sparse.trisolve")):
        group = named(name)
        m[f"sparse.{short}.calls"] = float(len(group))
        m[f"sparse.{short}.s"] = total(group)
    gm = named("sparse.gmres")
    m["sparse.gmres.calls"] = float(len(gm))
    m["sparse.gmres.its"] = attr_sum(gm, "its")
    m["sparse.gmres.s"] = total(gm)
    m["sparse.gmres.self_s"] = float(sum(selfs[s.id] for s in gm))
    m["sparse.gmres.unconverged"] = failures(gm)

    m["schwarz.evaluate.s"] = total(named("schwarz.evaluate"))
    local = named("schwarz.local")
    m["schwarz.local.calls"] = float(len(local))
    m["schwarz.local.busy_s"] = total(local)
    m["schwarz.local.newton_its"] = attr_sum(local, "its")
    m["schwarz.local.unconverged"] = failures(local)
    phases = named("schwarz.run_locals")
    capacity = sum(s.attrs.get("workers", 1) * s.duration for s in phases)
    m["schwarz.local.parallel_eff"] = (m["schwarz.local.busy_s"] / capacity
                                       if capacity else 0.0)
    corrections = named("schwarz.coarse")
    m["schwarz.coarse.calls"] = float(len(corrections))
    m["schwarz.coarse.s"] = total(corrections)
    m["schwarz.coarse.newton_its"] = attr_sum(corrections, "its")
    m["schwarz.coarse.unconverged"] = failures(corrections)
    tangent = named("schwarz.apply_tangent")
    m["schwarz.apply_tangent.calls"] = float(len(tangent))
    m["schwarz.apply_tangent.s"] = total(tangent)
    m["schwarz.ls.evals"] = attr_sum(named("schwarz.ls"), "evals")

    ls = named("outer.ls")
    m["outer.ls.evals"] = attr_sum(ls, "evals")
    m["outer.ls.s"] = total(ls)
    m["outer.self_s"] = selfs[solve.id]

    main = [s for s in inside if s.thread == solve.thread]
    for layer in ("outer", "schwarz", "sparse", "assembly"):
        m[f"self.{layer}_s"] = float(sum(selfs[s.id] for s in main
                                         if s.name.split(".")[0] == layer))
    m["trace.solve_s"] = solve.duration
    m["trace.accounted_frac"] = (
        sum(m[f"self.{layer}_s"] for layer in ("outer", "schwarz", "sparse",
                                               "assembly")) / solve.duration)
    return m
