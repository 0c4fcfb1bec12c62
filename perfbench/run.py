"""limitlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the entry point users run, ``limitlab.cli.main([...])``, in-process:
one process, one thread, closed loop (each job starts when the previous one
has finished). A round runs every job of the workload once; rounds repeat
until ``--seconds`` of job time have been measured. Each job's artifacts are
checked after the job, outside the timed region, and must be byte-identical
in every round.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
throughput over the timed jobs, set-up time (median over fresh processes)
and peak resident memory. Throughput and set-up time are reported at a
reference host speed: the host is sampled while the work runs
(``hostspeed.py``), so a shared host's changing speed divides out. ``--trace 1`` runs one untraced round, then wraps
the program's layers (``tracing.py``) and reports the per-layer metrics,
the tracing overhead, and whether the traced artifacts match the untraced
ones byte for byte.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; attempted and failed
count work items (grid nodes, seeds, sweep rows), and every item of a job
that exits nonzero or fails its checks counts as failed.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread; must be set before numpy loads

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
SRC = ROOT / "src"

SETUP_PROBES = 7
# no new round starts after this much wall time, so a run ends well inside 180 s
WALL_CAP_S = 110.0


@dataclass
class JobResult:
    name: str
    items: int
    seconds: float
    problems: list
    digests: dict = field(default_factory=dict)
    norm_seconds: float = 0.0  # seconds at the reference host speed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up, print 'ready' and exit")
    return p.parse_args(argv)


def set_up(workload: str, seed: int):
    """Import the program from the checkout's source tree and make the inputs."""
    if not (SRC / "limitlab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no limitlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import limitlab.cli  # noqa: F401  (import is part of set-up)
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; "
                         f"have {sorted(workloads.WORKLOADS)}")
    return workloads.build(workload, seed)


def setup_probe(args) -> int:
    """Set up under the host-speed sampler; report the samples to the parent."""
    sampler = hostspeed.Sampler(hostspeed.python_kernel, hostspeed.PYTHON_REF_S)
    sampler.start()
    set_up(args.workload, args.seed)
    sampler.stop()
    print("ready " + json.dumps({"kernel_s": sampler.kernel_s,
                                 "slowdown": sampler.slowdown}), flush=True)
    return 0


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh process to the end of its set-up: as
    measured, and at the reference host speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if not line.startswith("ready ") or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    host = json.loads(line.split(" ", 1)[1])
    return elapsed, (elapsed - host["kernel_s"]) / host["slowdown"]


def run_job(cli, job, out: Path, rec=None, sampler=None) -> JobResult:
    """One job, timed; with a ``sampler``, also timed at the reference speed."""
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [*job.argv, "--out", str(out)]
    crash = None
    t0 = time.perf_counter()
    if rec is not None:
        rec.enabled = True
    if sampler is not None:
        sampler.start()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except Exception:
        rc, crash = None, traceback.format_exc()
    finally:
        seconds = time.perf_counter() - t0
        if sampler is not None:
            sampler.stop()
        if rec is not None:
            rec.enabled = False
    norm = sampler.normalize(seconds) if sampler is not None else seconds

    if rc != 0:
        detail = crash or stderr.getvalue().strip()
        return JobResult(job.name, job.items, seconds, [f"exit {rc}: {detail}"],
                         norm_seconds=norm)
    problems = job.check(out, stdout.getvalue())
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir()) if p.is_file()}
    return JobResult(job.name, job.items, seconds, problems, digests, norm)


def run_rounds(cli, jobs, work: Path, seconds: float, deadline: float, rec=None,
               reference=None, sampler=None) -> list[list[JobResult]]:
    """Rounds of every job until ``seconds`` of job time (or the wall cap).

    Artifacts must match ``reference`` (a round's digests), or else the first
    round's, byte for byte."""
    rounds: list[list[JobResult]] = []
    timed = 0.0
    while not rounds or (timed < seconds and time.perf_counter() < deadline):
        results = [run_job(cli, job, work / job.name, rec, sampler) for job in jobs]
        reference = reference or [r.digests for r in results]
        for r, want in zip(results, reference):
            if not r.problems and r.digests != want:
                differ = sorted(k for k in set(r.digests) | set(want)
                                if r.digests.get(k) != want.get(k))
                r.problems.append("artifacts differ from the reference round: "
                                  + ", ".join(differ))
        rounds.append(results)
        timed += sum(r.seconds for r in results)
    return rounds


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu_model()}


def report_jobs(rounds) -> tuple[int, int]:
    """Print digests and problems; return (attempted, failed) items."""
    attempted = failed = 0
    for results in rounds:
        for r in results:
            attempted += r.items
            if r.problems:
                failed += r.items
                for problem in r.problems:
                    print(f"FAIL {r.name}: {problem}")
    for r in rounds[0]:
        for name, digest in r.digests.items():
            print(f"sha256 {r.name}/{name} {digest}")
    return attempted, failed


def throughput(rounds, attr: str = "norm_seconds") -> float:
    """Items of one round over the sum of each job's median time across rounds.

    A median per job keeps one slow round (the host is shared) from moving
    the figure; a job that failed in any round contributes no items."""
    jobs = list(zip(*rounds))
    done = sum(r[0].items for r in jobs if not any(x.problems for x in r))
    return done / sum(statistics.median(getattr(x, attr) for x in r) for r in jobs)


def measure(cli, jobs, args, work: Path, deadline: float):
    """Untraced rounds; the end-to-end metrics."""
    sampler = hostspeed.Sampler(hostspeed.mixed_kernel(), hostspeed.MIXED_REF_S)
    rounds = run_rounds(cli, jobs, work, args.seconds, deadline, sampler=sampler)
    print(f"items_per_s as measured {throughput(rounds, 'seconds'):.6g}; "
          "normalized round seconds "
          + " ".join(f"{sum(r.norm_seconds for r in results):.3f}" for results in rounds))
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    print("setup_s samples (measured/normalized) "
          + " ".join(f"{raw:.4f}/{norm:.4f}" for raw, norm in setups))
    return rounds, {
        "items_per_s": throughput(rounds),
        "setup_s": statistics.median(norm for _, norm in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(cli, jobs, args, work: Path, deadline: float, names):
    """One untraced round, then traced rounds; the per-layer metrics."""
    import tracing

    reference = run_rounds(cli, jobs, work, 0.0, deadline)
    rec = tracing.Recorder()
    tracing.install(rec)
    traced = run_rounds(cli, jobs, work, args.seconds, deadline, rec,
                        reference=[r.digests for r in reference[0]])
    rec.write(RUNS / f"trace-{args.workload}.npz")
    table = tracing.layer_table(rec)
    per_round = [sum(r.seconds for r in results) for results in traced]
    overhead = statistics.median(per_round) / sum(r.seconds for r in reference[0]) - 1.0
    tracing.print_table(table, len(traced), sum(per_round))
    return reference + traced, tracing.per_layer_metrics(
        names, table, len(traced), overhead, sum(per_round))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    jobs = set_up(args.workload, args.seed)

    import limitlab.cli as cli

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("env " + json.dumps(environment(), sort_keys=True))
    for job in jobs:
        print(f"job {job.name}: {job.items} items: limitlab {' '.join(job.argv)[:160]}")

    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    deadline = time.perf_counter() + WALL_CAP_S
    try:
        if args.trace:
            rounds, values = measure_traced(cli, jobs, args, work, deadline,
                                            [m["name"] for m in wanted])
        else:
            rounds, values = measure(cli, jobs, args, work, deadline)
        print(f"rounds {len(rounds)}; round seconds "
              + " ".join(f"{sum(r.seconds for r in results):.3f}" for results in rounds))
        attempted, failed = report_jobs(rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
