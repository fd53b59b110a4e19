"""Tests of the benchmark itself: span self times, the tracer's wrapping,
the correctness gate, small-size runs of every workload, the metric list in
BENCHMARK.json and the compare verdicts."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import pwkit  # noqa: E402
from pwkit import cli, fourier, grid, pw, radon  # noqa: E402

import compare  # noqa: E402
import gate as gate_mod  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(sid, start, end, parent=None, group="g", name="m.f", iteration=0):
    return spans.Span(sid, name, group, start, end, parent, iteration)


def test_self_time_subtracts_the_union_of_children():
    s = [span(0, 0.0, 10.0),
         span(1, 1.0, 3.0, parent=0),
         span(2, 2.0, 4.0, parent=0),       # overlaps its sibling
         span(3, 2.5, 3.5, parent=1),       # grandchild: not the root's
         span(4, 8.0, 12.0, parent=0)]      # clipped to the parent
    st = spans.self_times(s)
    assert st[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert st[1] == pytest.approx(2.0 - 0.5)
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(4.0)


def test_layer_metrics_account_for_the_wall_time():
    s = [span(0, 0.0, 6.0, group="cli", name="cli.run"),
         span(1, 1.0, 4.0, parent=0, group="radon.inverse_radon",
              name="radon.inverse_radon")]
    out = spans.layer_metrics(s, {0: 8.0})
    assert out["cli.self_s"] == pytest.approx(3.0)
    assert out["radon.inverse_radon.self_s"] == pytest.approx(3.0)
    assert out["trace.unattributed_s"] == pytest.approx(2.0)


@pytest.fixture
def tracer():
    t = spans.Tracer().install(pwkit)
    yield t
    t.uninstall()


def test_install_reaches_every_binding_and_uninstall_restores():
    original = radon.radon_transform
    t = spans.Tracer().install(pwkit)
    try:
        wrapped = radon.radon_transform
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert fourier.radon_transform is wrapped
        assert pw.radon_transform is wrapped
        assert pwkit.radon_transform is wrapped
        assert cli.PIPELINES["radon"].__wrapped__ is cli.run_radon.__wrapped__
    finally:
        t.uninstall()
    assert radon.radon_transform is original
    assert pw.radon_transform is original
    assert not hasattr(cli.PIPELINES["radon"], "__wrapped__")


def test_recursive_complex_radon_transform_nests_its_spans(tracer):
    g = grid.GridSpec(2, 1.5, 33)
    f = grid.make_bump([0.1, 0.0], 0.6, 1.0, g)
    fc = grid.SampledFunction(g, f.values * (1 + 2j), f.support_radius)
    dirs = grid.DirectionSet.circle(8)
    tracer.iteration = 0
    s = radon.radon_transform(fc, directions=dirs)
    tracer.iteration = None
    rt = [x for x in tracer.spans if x.name == "radon.radon_transform"]
    assert len(rt) == 3
    outer = [x for x in rt if x.parent is None]
    assert len(outer) == 1
    inner = [x for x in rt if x.parent == outer[0].id]
    assert len(inner) == 2
    st = spans.self_times(tracer.spans)
    children = sum(x.end - x.start for x in tracer.spans
                   if x.parent == outer[0].id)
    assert st[outer[0].id] == pytest.approx(
        outer[0].end - outer[0].start - children)
    m = spans.layer_metrics(tracer.spans, {0: 1.0})
    assert m["radon.transform2d.calls"] == 3
    # integrals are counted once, on the two real-input transforms
    integrals = sum(x.work.get("integrals", 0) for x in rt)
    assert integrals == 2 * s.values.size


def test_gate_counts_a_raising_certificate_and_continues():
    g = gate_mod.Gate()
    assert g.check("boom", lambda: 1 / 0, 1.0) is None
    g.check("fine", lambda: 0.5, 1.0)
    g.check("floor", lambda: 8.0, 2.0, compare="ge")
    g.record("recorded", lambda: 0.07)
    g.exact("exact", lambda: True)
    assert (g.attempted, g.failed) == (5, 1)
    assert "ZeroDivisionError" in g.records[0]["error"]
    assert g.worst_margin() == pytest.approx(0.5)
    assert g.records[2]["margin"] == pytest.approx(0.25)
    assert g.defects()["defect.recorded"] == pytest.approx(0.07)


def test_radon3d_small():
    a = workloads.setup_radon3d(3, points=33, band=2, bumps=2)
    b = workloads.setup_radon3d(3, points=33, band=2, bumps=2)
    assert np.array_equal(a["bumps"][1].values, b["bumps"][1].values)
    for f in a["bumps"]:
        assert f.support_radius == pytest.approx(0.75)
    g = gate_mod.Gate()
    workloads.iterate_radon3d(a, g, 0)
    assert [r["name"] for r in g.records] == [
        n for n, _ in workloads.RADON3D_CHECKS]
    assert all(r["error"] is None and math.isfinite(r["value"])
               for r in g.records)


def test_sinogram2d_small():
    inputs = workloads.setup_sinogram2d(3, points=65, directions=16,
                                        inversion_directions=32)
    g = gate_mod.Gate()
    workloads.iterate_sinogram2d(inputs, g, 0)
    assert g.attempted == 1 + 6 * len(workloads.SINOGRAM2D_SHAPES)
    assert all(r["error"] is None and math.isfinite(r["value"])
               for r in g.records)


def test_algebra_small_mix_is_exact():
    inputs = workloads.setup_algebra(
        3, certificates=(("B", 3, 2, 4), ("D", 4, 3, 4)),
        lifts=(("B", 3, 2, 4, 2), ("D", 4, 3, 2, 1)),
        obstruction=("D", 4, 3, 3))
    g = gate_mod.Gate()
    workloads.iterate_algebra(inputs, g, 0)
    assert g.attempted == 2 + 3 + 1
    assert g.failed == 0, [r for r in g.records if not r["passed"]]


def test_desk_pipeline_matches_its_recorded_pass_vector():
    inputs = workloads.setup_desk(7, subcommand="sphere")
    g = gate_mod.Gate()
    workloads.iterate_desk(inputs, g, 0)
    assert g.attempted == len(workloads.DESK_RECORDS["sphere"])
    assert g.failed == 0 and not g.problems


def test_desk_records_match_the_cli():
    # the slice and radon pipelines are costly; their names are compared
    # against the record names the CLI source declares
    src = (ROOT / "src" / "pwkit" / "cli.py").read_text()
    for records in workloads.DESK_RECORDS.values():
        for name, _ in records:
            assert '"%s"' % name in src


def test_speed_sampler_mean_drops_the_extreme_tenths():
    sampler = speed.Sampler()
    # twenty samples in [1, 2]: 1.0 and 9.0 are cut, 5.0 outside is ignored
    sampler.samples = ([(1.0, 1.0), (1.5, 9.0), (3.0, 5.0)]
                       + [(1.0 + k / 20, 2.0) for k in range(18)])
    assert sampler.mean_between(1.0, 2.0) == pytest.approx(2.0)
    # an interval with no sample falls back to all of them
    assert sampler.mean_between(2.5, 2.6) == pytest.approx(2.0)
    live = speed.Sampler()
    live.start()
    deadline = time.monotonic() + 10
    while len(live.samples) < 3 and time.monotonic() < deadline:
        time.sleep(speed.INTERVAL_S)
    live.stop()
    assert not live.is_alive()
    assert len(live.samples) >= 3
    assert all(s > 0 for _, s in live.samples)


def test_benchmark_json_lists_exactly_the_produced_metrics():
    produced = set(spans.layer_metrics([], {0: 1.0}))
    groups = set(spans.GROUPS.values()) | set(
        spans.WHOLE_LAYER_GROUPS.values())
    groups |= {"radon.transform2d", "radon.transform3d"}
    groups |= {layer + ".other" for layer in ("radon", "fourier", "weyl")}
    produced |= {g + ".self_s" for g in groups}
    names = [n for recs in workloads.DESK_RECORDS.values() for n, _ in recs]
    names += [n for n, _ in workloads.RADON3D_CHECKS]
    produced |= {gate_mod.slug(n) for n in names}
    produced |= {"margin.worst", "run.first_iter_s", "run.speed_kernel_s"}
    listed = {m["name"] for m in SPEC["per_layer"]}
    assert listed == produced
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    base = [(s, 10.0 + 0.1 * s) for s in range(10)]
    assert compare.verdict(base, [(s, v * 1.5) for s, v in base],
                           "lower", 0.2)[1] == "regressed"
    assert compare.verdict(base, [(s, v * 1.05) for s, v in base],
                           "lower", 0.2)[1] == "within bound"
    assert compare.verdict(base, [(s, v * 0.5) for s, v in base],
                           "lower", 0.2)[1] == "improved"
    noisy = [(s, 10.0 * (1 + s % 2)) for s in range(10)]
    assert compare.verdict(base, noisy, "lower", 0.2)[1] == "unresolved"
    # a noisy side still regresses when every new run is worse
    assert compare.verdict(noisy, [(s, 40.0 + s) for s in range(10)],
                           "lower", 0.2)[1] == "regressed"
