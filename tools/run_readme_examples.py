#!/usr/bin/env python3
"""Run the examples of README.md, so a renamed or deleted name shows up as a
failure instead of a stale document.

Each fenced ``python`` block runs as its own script, and each ``limitlab ...``
line of the ``sh`` blocks runs through the shell, in order, all in one fresh
temporary directory (later lines read what earlier ones wrote). The
``limitlab`` command must be on PATH, as ``pip install -e .`` puts it. Run
from anywhere:

    python3 tools/run_readme_examples.py

The exit status is 1 at the first example that exits non-zero.
"""

import pathlib
import re
import subprocess
import sys
import tempfile

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for kind, source in examples(README.read_text()):
            print(f"== {kind}: {source.splitlines()[0]}", flush=True)
            if kind == "python":
                run = subprocess.run([sys.executable, "-c", source], cwd=tmp)
            else:
                run = subprocess.run(source, shell=True, cwd=tmp)
            if run.returncode != 0:
                print(f"README example exited with {run.returncode}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
