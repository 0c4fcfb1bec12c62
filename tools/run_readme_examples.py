#!/usr/bin/env python3
"""Run the examples of README.md, so a renamed or deleted name shows up as a
failure instead of a stale document.

Each fenced ``python`` block runs as its own script, and each ``limitlab ...``
line of the ``sh`` blocks runs through the shell, in order, all in one fresh
temporary directory (later lines read what earlier ones wrote). Nothing
needs installing: the examples import the checkout's ``src`` through
``PYTHONPATH``, and a ``limitlab`` script first on ``PATH`` runs this
interpreter's ``python -m limitlab.cli``. Run from anywhere:

    python3 tools/run_readme_examples.py

The exit status is 1 at the first example that exits non-zero.
"""

import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)


def examples(text: str):
    """``(kind, source)`` for each python block and ``limitlab`` line, in
    document order."""
    for lang, body in FENCE.findall(text):
        if lang == "python":
            yield "python", body
        elif lang == "sh":
            for line in body.splitlines():
                if line.startswith("limitlab "):
                    yield "sh", line


def environment(bin_dir: pathlib.Path) -> dict:
    """This process's environment with the checkout's ``src`` first on
    ``PYTHONPATH`` and ``bin_dir``, where a ``limitlab`` script is written,
    first on ``PATH``."""
    shim = bin_dir / "limitlab"
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m limitlab.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ)
    for name, first in (("PYTHONPATH", ROOT / "src"), ("PATH", bin_dir)):
        env[name] = os.pathsep.join(filter(None, [str(first), env.get(name)]))
    return env


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        bin_dir, cwd = pathlib.Path(tmp, "bin"), pathlib.Path(tmp, "work")
        bin_dir.mkdir()
        cwd.mkdir()
        env = environment(bin_dir)
        for kind, source in examples(README.read_text()):
            print(f"== {kind}: {source.splitlines()[0]}", flush=True)
            if kind == "python":
                run = subprocess.run([sys.executable, "-c", source], cwd=cwd, env=env)
            else:
                run = subprocess.run(source, shell=True, cwd=cwd, env=env)
            if run.returncode != 0:
                print(f"README example exited with {run.returncode}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
