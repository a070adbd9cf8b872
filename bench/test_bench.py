"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import threading
from pathlib import Path

import pytest

import probe
import run
from spans import (Patches, Span, Tracer, install_layer_spans,
                   install_solve_capture, layer_metrics, self_times)

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())

MAIN, WORKER_A, WORKER_B = 1, 2, 3


def spans_of(*rows):
    return [Span(i, name, thread, parent, t0, t1, dict(attrs))
            for i, (name, thread, parent, t0, t1, attrs) in enumerate(rows)]


def test_self_times_two_threads():
    spans = spans_of(
        ("outer.solve", MAIN, None, 0.0, 10.0, {}),          # 0
        ("sparse.gmres", MAIN, 0, 1.0, 4.0, {}),             # 1
        ("schwarz.evaluate", MAIN, 0, 5.0, 9.0, {}),         # 2
        ("schwarz.coarse", MAIN, 2, 6.0, 7.0, {}),           # 3
        ("schwarz.local", WORKER_A, None, 2.0, 8.0, {}),     # 4
        ("assembly.tangent", WORKER_A, 4, 3.0, 5.0, {}),     # 5
    )
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0,
                                   4: 4.0, 5: 2.0})
    # the main thread's self times partition the root; the worker's busy
    # time is reported separately and does not count against it
    assert sum(selfs[s.id] for s in spans if s.thread == MAIN) == \
        pytest.approx(10.0)


def test_layer_metrics_synthetic_tree():
    spans = spans_of(
        ("mesh.ghost_layer", MAIN, None, -3.0, -2.0, {}),            # 0
        ("mesh.nodal_graph", MAIN, 0, -2.8, -2.5, {}),               # 1
        ("outer.solve", MAIN, None, 0.0, 10.0, {}),                  # 2
        ("schwarz.evaluate", MAIN, 2, 1.0, 6.0, {}),                 # 3
        ("schwarz.run_locals", MAIN, 3, 1.0, 5.0, {"workers": 2}),   # 4
        ("schwarz.local", WORKER_A, None, 1.0, 4.0,
         {"its": 2, "converged": True}),                             # 5
        ("schwarz.local", WORKER_B, None, 1.0, 3.0,
         {"its": 3, "converged": False}),                            # 6
        ("assembly.tangent", WORKER_B, 6, 1.5, 2.0,
         {"sub": True, "elems": 100}),                               # 7
        ("sparse.gmres", MAIN, 2, 6.0, 9.0,
         {"its": 7, "converged": True}),                             # 8
        ("sparse.gmres.apply", MAIN, 8, 6.5, 8.0, {}),               # 9
    )
    tracer = Tracer()
    tracer.spans = spans
    m = layer_metrics(tracer)
    assert m["mesh.setup_s"] == pytest.approx(1.0)
    assert m["schwarz.local.calls"] == 2
    assert m["schwarz.local.busy_s"] == pytest.approx(5.0)
    assert m["schwarz.local.newton_its"] == 5
    assert m["schwarz.local.unconverged"] == 1
    assert m["schwarz.local.parallel_eff"] == pytest.approx(5.0 / 8.0)
    assert m["assembly.tangent_sub.us_per_elem"] == pytest.approx(5000.0)
    assert m["sparse.gmres.its"] == 7
    assert m["sparse.gmres.self_s"] == pytest.approx(1.5)
    assert m["outer.self_s"] == pytest.approx(2.0)
    assert m["self.schwarz_s"] == pytest.approx(5.0)
    assert m["self.sparse_s"] == pytest.approx(3.0)
    assert m["trace.accounted_frac"] == pytest.approx(1.0)


def test_tracer_keeps_parents_per_thread():
    tracer = Tracer()
    outer = tracer.open("outer.solve")

    def work():
        s = tracer.open("schwarz.local")
        tracer.close(tracer.open("assembly.tangent"))
        tracer.close(s)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.close(outer)
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert outer.parent is None
    assert [s.parent for s in by_name["schwarz.local"]] == [None, None]
    locals_ = {s.id: s for s in by_name["schwarz.local"]}
    for s in by_name["assembly.tangent"]:
        assert locals_[s.parent].thread == s.thread != outer.thread


def test_patches_restore_originals():
    from nlschwarz import assembly, cli, coarse, mesh, outer, schwarz, sparse
    owners = (assembly, cli, coarse, mesh, outer, schwarz,
              schwarz.SchwarzOperator, sparse.Factorization)
    before = {id(o): dict(vars(o)) for o in owners}
    patches = Patches()
    install_solve_capture(patches, Tracer(), {})
    install_layer_spans(patches, Tracer())
    assert patches.missing == []
    assert cli.solve_nks is not before[id(cli)]["solve_nks"]
    assert sparse.Factorization.solve is not \
        before[id(sparse.Factorization)]["solve"]
    patches.restore()
    for o in owners:
        now = vars(o)
        for name, value in before[id(o)].items():
            assert now[name] is value, f"{o.__name__}.{name} not restored"


TINY = {"problem": "ldc", "re": 100, "subdomains": [2, 2], "hh": 4,
        "coarse": "rgdsw"}
ZERO_ALLOWED = ("unconverged",)
HYBRID_ONLY = ("schwarz.", "assembly.tangent_sub", "assembly.residual_sub",
               "self.schwarz_s")


@pytest.mark.parametrize("variant", ["hybrid", "nks"])
def test_traced_tiny_run_fills_every_exercised_metric(variant, monkeypatch):
    monkeypatch.setenv("NLSCHWARZ_WORKERS", "2")
    out = probe.measure(dict(TINY, variant=variant), trace=True)
    assert out["ok"], out["reason"]
    assert out["missing_wrappers"] == []
    m = out["layers"]
    for name, value in m.items():
        if name.endswith(ZERO_ALLOWED):
            continue
        if variant == "nks" and name.startswith(HYBRID_ONLY):
            assert value == 0, name
        else:
            assert value > 0, name
    assert m["trace.accounted_frac"] == pytest.approx(1.0, abs=0.05)
    assert m["sparse.gmres.its"] == out["gmres_its"]


def test_setup_passes_stop_before_the_solve():
    out = probe.measure(dict(TINY, variant="hybrid"), trace=False,
                        setup_passes=2)
    assert len(out["setup_s"]) == 3
    assert all(0 < s < out["solve_s"] for s in out["setup_s"][1:])


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == run.END_TO_END
    out = probe.measure(dict(TINY, variant="nks"), trace=True)
    names = set(out["layers"]) | {"report.inner_its_avg", "report.coarse_its",
                                  "trace.overhead_s"}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(layers) == names
    assert all(run.layer_unit(n) == u for n, u in layers.items())
    assert {w["name"] for w in SPEC["workloads"]} == set(probe.WORKLOADS)


def test_fingerprint_accepts_itself_and_rejects_a_shift():
    from nlschwarz import cli
    patches, captured = Patches(), {}
    install_solve_capture(patches, Tracer(), captured)
    try:
        cli.run_point(dict(TINY, variant="hybrid"), {})
    finally:
        patches.restore()
    ref = probe.fingerprint(captured["solution"])
    assert probe.check_output(captured, ref, 100)["ok"]
    captured["solution"] = captured["solution"] + 1e-2
    bad = probe.check_output(captured, ref, 100)
    assert not bad["ok"] and "fingerprint" in bad["reason"]
