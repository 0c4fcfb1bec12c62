"""Regenerate ``pinned.json``: the rows every charts-sweep job must reproduce.

    python3 perfbench/pin.py

Runs each sweep job of the benchmark once for every ``--seed`` it can be
given and records ``[kind, size, ridge, has_error, residual_heldout,
collapse_ratio, min_sep_ratio]`` per row. Run it only at a commit whose sweep
output is known good (the file in the repository was written at the commit
that introduced the benchmark); a change that moves these numbers on purpose
regenerates the file and says why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from limitlab import cli  # noqa: E402


def main() -> int:
    runs = HERE.parent / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    sweep: dict[str, dict[str, list]] = {}
    with tempfile.TemporaryDirectory(dir=runs) as tmp:
        for name, argv in workloads.SWEEPS.items():
            sweep[name] = {}
            for seed in workloads.SWEEP_SEEDS:
                out = Path(tmp) / f"{name}-{seed}"
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main([*argv, "--seed", str(seed), "--out", str(out)])
                if rc != 0:
                    raise SystemExit(f"sweep {name} --seed {seed} exited {rc}")
                report = json.loads((out / "sweep.json").read_text())
                sweep[name][str(seed)] = workloads.sweep_facts(report)

    # one row per line keeps the file readable and its diffs small
    lines = ['{"sweep": {']
    for i, (name, by_seed) in enumerate(sweep.items()):
        lines.append(f"  {json.dumps(name)}: {{")
        for j, (seed, rows) in enumerate(by_seed.items()):
            lines.append(f"    {json.dumps(seed)}: [")
            lines += [f"      {json.dumps(r)}" + ("," if k < len(rows) - 1 else "")
                      for k, r in enumerate(rows)]
            lines.append("    ]" + ("," if j < len(by_seed) - 1 else ""))
        lines.append("  }" + ("," if i < len(sweep) - 1 else ""))
    lines.append("}}")
    text = "\n".join(lines) + "\n"
    json.loads(text)
    workloads.PINNED.write_text(text)
    print(f"wrote {workloads.PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
