"""Tests of the benchmark itself: span arithmetic, wrappers, output checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from limitlab import cli  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    #  0 root [0, 10]
    #  ├─ 1 a [1, 4]
    #  └─ 2 b [5, 9]
    #     └─ 3 c [6, 7]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    own = tracing.self_times(parent, end - start)
    assert own.tolist() == [3.0, 3.0, 3.0, 1.0]
    # self times add up to the root's duration
    assert own.sum() == 10.0


def test_recorder_nests_spans_and_counts():
    rec = tracing.Recorder()
    inner = tracing.wrap(rec, "m.inner", lambda x: x + 1,
                         lambda a, k, r: (("items", a[0]),))
    outer = tracing.wrap(rec, "m.outer", lambda x: inner(x) + inner(x))
    assert outer(2) == 6            # disabled: a plain call, nothing recorded
    assert rec.names == []
    rec.enabled = True
    assert outer(2) == 6
    table = tracing.layer_table(rec)
    assert table["m.outer"]["calls"] == 1 and table["m.inner"]["calls"] == 2
    assert table["m.outer"]["children.m.inner"] == 2
    assert table["m.inner"]["items"] == 4
    total = table["m.outer"]["incl_s"]
    assert table["m.outer"]["self_s"] + table["m.inner"]["self_s"] == pytest.approx(total)


def test_wrapper_passes_results_and_exceptions_through():
    rec = tracing.Recorder()
    rec.enabled = True
    token = object()
    assert tracing.wrap(rec, "m.f", lambda: token)() is token

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracing.wrap(rec, "m.g", boom)()
    assert rec.counts[("m.g", "errors")] == 1
    assert rec._stack == []


def test_per_layer_metrics_derive_ratios():
    table = {"limits.estimate_omega": {"calls": 4.0, "incl_s": 2.0, "self_s": 1.0,
                                       "converged": 3.0,
                                       "children.dynamics.iterate": 12.0}}
    names = ["limits.estimate_omega.calls", "limits.estimate_omega.converged_ratio",
             "limits.estimate_omega.windows_per_call", "kdtree.query.points",
             "trace.overhead_ratio"]
    got = tracing.per_layer_metrics(names, table, rounds=2, overhead=0.25,
                                    traced_seconds=2.0)
    assert got == {"limits.estimate_omega.calls": 2.0,
                   "limits.estimate_omega.converged_ratio": 0.75,
                   "limits.estimate_omega.windows_per_call": 2.0,
                   "kdtree.query.points": 0.0,
                   "trace.overhead_ratio": 0.25}


def test_inputs_come_from_the_seed():
    for name in workloads.WORKLOADS:
        first = [j.argv for j in workloads.build(name, 3)]
        assert first == [j.argv for j in workloads.build(name, 3)]
        assert first != [j.argv for j in workloads.build(name, 4)]


def _small_basins_job():
    return workloads.Job(
        "rotation-21",
        ("basins", "--system", "rotation-scaling", "--domain=-2,2;-2,2",
         "--resolution", "21", "--seeds=0,0;2,0"),
        21 * 21,
        lambda out, stdout: workloads.check_basins(
            out, stdout, resolution=(21, 21), counts=[1, 440],
            witnesses=[((0.0, 0.0), 1, 440)]))


def test_checker_accepts_good_output_and_flags_a_flipped_label(tmp_path):
    job = _small_basins_job()
    result = run.run_job(cli, job, tmp_path / "out")
    assert result.problems == []
    assert set(result.digests) == {"basins.csv", "basins.json"}

    csv = tmp_path / "out" / "basins.csv"
    lines = csv.read_text().splitlines()
    i, j, label = lines[1].split(",")
    other = "S0" if label == "S1" else "S1"
    lines[1] = f"{i},{j},{other}"
    csv.write_text("\n".join(lines) + "\n")
    problems = job.check(tmp_path / "out", "")
    assert any("basins.csv labels" in p for p in problems)


def test_checker_flags_wrong_counts_and_schema_violations(tmp_path):
    job = _small_basins_job()
    assert run.run_job(cli, job, tmp_path / "out").problems == []
    path = tmp_path / "out" / "basins.json"
    summary = json.loads(path.read_text())

    moved = dict(summary, counts={"S0": 2, "S1": 439})
    path.write_text(json.dumps(moved))
    assert any("label counts" in p for p in job.check(tmp_path / "out", ""))

    broken = dict(summary, resolution="21x21")
    path.write_text(json.dumps(broken))
    assert any("schema" in p for p in job.check(tmp_path / "out", ""))


def test_nonzero_exit_is_a_failure(tmp_path):
    job = workloads.Job("bad", ("limits", "--system", "no-such-system"), 5,
                        lambda out, stdout: [])
    result = run.run_job(cli, job, tmp_path / "out")
    assert result.problems and result.problems[0].startswith("exit 2")
    rounds = [[result]]
    assert run.report_jobs(rounds) == (5, 5)


def test_sweep_check_compares_numbers_with_the_gate_tolerance(tmp_path):
    argv = workloads.SWEEPS["rotation-scaling"]
    rows = workloads.load_pinned()["sweep"]["rotation-scaling"]["42"]
    job = workloads.Job("sweep", argv + ("--seed", "42"), len(rows),
                        lambda out, stdout: workloads.check_sweep(out, stdout, pinned=rows))
    assert run.run_job(cli, job, tmp_path / "out").problems == []
    nudged = [r[:4] + [r[4] * (1 + 1e-5) if r[4] else r[4]] + r[5:] for r in rows]
    assert workloads.check_sweep(tmp_path / "out", "", pinned=nudged)


def test_host_speed_normalization_divides_out_the_slowdown():
    sampler = hostspeed.Sampler(lambda: None, reference_s=0.002)
    sampler.samples = [0.003, 0.005]       # twice the reference, on average
    sampler.kernel_s = 0.008
    assert sampler.slowdown == pytest.approx(2.0)
    assert sampler.normalize(1.008) == pytest.approx(0.5)


def test_sampled_job_writes_the_same_bytes(tmp_path):
    job = _small_basins_job()
    plain = run.run_job(cli, job, tmp_path / "plain")
    sampler = hostspeed.Sampler(hostspeed.mixed_kernel(), hostspeed.MIXED_REF_S,
                                interval=0.002)
    sampled = run.run_job(cli, job, tmp_path / "sampled", sampler=sampler)
    assert sampled.problems == [] and sampled.digests == plain.digests
    assert len(sampler.samples) >= 2 and 0.0 < sampler.kernel_s < sampled.seconds
    assert sampled.norm_seconds > 0.0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_traced_run_writes_the_same_bytes_and_reaches_every_named_layer(tmp_path):
    """Installs the wrappers for the rest of this process, so it runs last."""
    from limitlab import geometry, limits
    from limitlab.catalog import get_system

    job = _small_basins_job()
    plain = run.run_job(cli, job, tmp_path / "plain")
    a = np.random.default_rng(0).normal(size=(700, 2))
    b = np.random.default_rng(1).normal(size=(600, 2))
    want_h = geometry.hausdorff(a, b)
    want_q = limits.cKDTree(b).query(a, k=1)
    want_f = get_system("mobius").forward(np.array([0.25, 2.0]))

    rec = tracing.Recorder()
    spans = tracing.install(rec)
    rec.enabled = True
    assert limits.hausdorff(a, b) == want_h
    got_q = limits.cKDTree(b).query(a, k=1)
    assert all(np.array_equal(g, w) for g, w in zip(got_q, want_q))
    assert np.array_equal(cli.get_system("mobius").forward(np.array([0.25, 2.0])), want_f)
    rec.enabled = False

    traced = run.run_job(cli, job, tmp_path / "traced", rec)
    assert traced.problems == [] and traced.digests == plain.digests
    table = tracing.layer_table(rec)
    assert table["cli.main"]["calls"] == 1
    assert table["geometry.hausdorff"]["points"] >= 1300
    assert table["kdtree.query"]["calls"] >= 1

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
    assert layers - spans == {"trace"}
