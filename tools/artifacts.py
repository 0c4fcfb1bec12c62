#!/usr/bin/env python3
"""The artifact ledger: run every command whose files must be reproducible
byte for byte, then compare two runs digest by digest.

    python3 tools/artifacts.py run OUT
    python3 tools/artifacts.py compare A B

``run`` runs each ``MANIFEST`` entry with the ``src/`` beside this script
into ``OUT/<name>``, then ``report`` on it, and writes ``OUT/digests.json``:
the sha256 of every file, of both printouts (``OUT`` for the directory) and
each ``KNOWN_TO_DIFFER`` setting's value. It exits 1 when a variant writes
other bytes than its entry; ``compare`` exits 1 when a digest differs, but
skips the files ``KNOWN_TO_DIFFER`` names for a setting whose value differs.
To compare a parent tree with a change, run a copy of this script in a
scratch checkout of the parent too.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the sources beside this script, not whatever limitlab is installed
sys.path.insert(0, str(ROOT / "src"))

from limitlab import Settings, cli  # noqa: E402

# Per kernel setting, the files known to differ when its value differs.
# numpy's SIMD tan, arctan and exp loops differ from the others in the last
# bit on some inputs; monomial and rational-pole features are products of
# IEEE multiplies in an order the code fixes, so no lift depends on them
KNOWN_TO_DIFFER = {"NPY_DISABLE_CPU_FEATURES": ["demo/cot-verify.json"]}

ROTATION_BOX = "--system rotation-scaling --domain=-2,2;-2,2"
SWEEP = "sweep --system rotation-scaling --ridges 0,1e-8"
# eight rotation-scaling windows of 500 points join the circle member, past
# its 2,048-point cap, so the member's one thinning runs; the origin is the
# second member, and the basin grid's witness
MANY = "--seeds=0,0;2,0;0.5,0.5;-1.5,0.25;1.2,-0.7;0.1,1.9;-0.8,-0.9;1.5,1.5;-0.3,0.6"
# the circle member's tolerance is tight enough that 106 of the 201x201
# nodes leave it, turn inconsistent and are not asked of the tree again
TIGHT = ("--seeds=0.0,0.0;1.0229351769447144,-0.47749356045363867;"
         "-0.6676936022014206,-0.05228599461227615;-0.4161237398125139,-1.7344001269398368")
# 24 period-2 orbits {x0, -x0}, a member of 128 one-coordinate points each:
# the shape of most of the bytes a catalog of many seeds writes
NEGATION = "--seeds=" + ";".join(f"{(-1) ** i * (0.05 + 0.02 * i):.2f}" for i in range(24))
# a basin grid on one thread, and in two chunks of its column-major node
# array on two, writes the same files and draws the same raster
THREADS = ["--threads 2"]

# (name, limitlab arguments but --out, variants)
MANIFEST = [
    # --set of every field of limitlab.Settings at its default changes nothing
    ("demo", "demo --seed 42",
     [" ".join(f"--set {f.name}={f.default!r}" for f in dataclasses.fields(Settings))]),
    # the demo's dictionaries have at most 5 features; monomial:5 on the
    # plane has 21, so each residual row norm adds 8 or more squares
    ("sweep-wide", f"{SWEEP} --dicts monomial:3,monomial:5", []),
    ("sweep-monomials", f"{SWEEP} --dicts monomial:2,monomial:3,monomial:5", []),
    # a fit report's residuals are the conjugacy residual of the lift on its training
    # pairs; fourier:4 (9 features) and monomial:5 (21) add 8 or more squares per row norm
    ("learn-mobius", "learn --system mobius --domain=-0.9,0.5 --dict rational-pole --order 3", []),
    ("learn-rotation-scaling", "learn --system rotation-scaling --dict monomial --order 5", []),
    ("learn-cot-map", "learn --system cot-map --dict fourier --order 4", []),
    # the paper's alpha-limit sets: each system's default seeds stepped backward. mobius
    # gives its repelling fixed point 1; cot-map two fixed points; rotation-scaling the
    # origin, with one seed at the backward map's singular point and one escaping
    *((f"alpha-{s}", f"limits --system {s} --backward", [])
      for s in ("mobius", "cot-map", "rotation-scaling")),
    ("many-limits", f"limits --system rotation-scaling {MANY}", []),
    ("limits-negation", f"limits --system negation {NEGATION}", []),
    ("many-basins", f"basins {ROTATION_BOX} --resolution 101 {MANY}", []),
    ("basins-rotation-scaling", f"basins {ROTATION_BOX} --resolution 201", THREADS),
    # 3 singular nodes and a witness at 1.0: rows stop, so the engine's stop
    # paths and the settle loop's row gathers run under both chunkings
    ("basins-mobius", "basins --system mobius --domain=-5,5 --resolution 301", THREADS),
    # settles on a one-member catalog
    ("basins-jordan", "basins --system jordan --param lam=0.9 --domain=-1,1;-1,1 "
                      "--resolution 101", THREADS),
    ("basins-tight", f"basins {ROTATION_BOX} --resolution 201 {TIGHT}", THREADS),
    # 1-d, and its witness sits at a domain endpoint, 0
    ("basins-cot-map", "basins --system cot-map --resolution 201", THREADS),
    # one orbit stopped inside a multi-step block, once per cause; report finds
    # nothing to render beside a trajectory, and its refusal is digested.
    # mobius leaves [-5, 5] at step 11, in the 8-step block of steps 7-14
    ("simulate-left-domain", "simulate --system mobius --x0 1.001 --steps 100 --domain=-5,5", []),
    # the tenth backward preimage of the pole 3 reaches it at step 10
    ("simulate-singular", "simulate --system mobius --x0 1.0009770395701028 --steps 100", []),
    # 2**10 passes r_div at step 10, and the image is kept
    ("simulate-diverged", "simulate --system scalar-linear --param a=2 --x0 1.0 --steps 100 "
                          "--set r_div=1000", []),
    # 2**1024 overflows at step 1023, the first step of its block (977 steps, the
    # budget's rest)
    ("simulate-overflow", "simulate --system scalar-linear --param a=2 --x0 1.0 --steps 2000 "
                          "--set r_div=1.7976931348623157e308", []),
    # the default seeds follow --param m (the block's unit vectors, then the all-ones
    # vector), and verify's survey grid stays within 17^2 nodes in 3-d and 4-d
    *((f"jordan-{cmd}-{m}", f"{cmd} --system jordan --param lam=0.9 --param m={m}", [])
      for m in (1, 2, 3, 4) for cmd in ("limits", "verify")),
]


def _run_one(argv: list, out: pathlib.Path) -> dict:
    """The sha256 of each file ``limitlab argv`` and ``report`` write into
    ``out``, by its path there, and of each one's printout. A directory
    with nothing ``report`` can render (a ``simulate`` trajectory alone)
    makes it exit 3 with a ``MissingArtifactError``: then its printout is
    that exit status, its standard output and its error line. Any other
    exit that is not 0 stops the run."""
    digests = {}
    for key, args in (("<stdout>", [*argv, "--out", str(out)]),
                      ("<report>", ["report", "--dir", str(out)])):
        with contextlib.redirect_stdout(io.StringIO()) as text, \
                contextlib.redirect_stderr(io.StringIO()) as errors:
            code = cli.main(args)
        printout, error = text.getvalue(), errors.getvalue()
        if key == "<report>" and code == 3 and '"MissingArtifactError"' in error:
            printout = f"exit 3\n{printout}{error}"
        else:
            sys.stderr.write(error)
            if code:
                sys.exit(f"limitlab {' '.join(args)} exited {code}")
        digests[key] = printout.replace(str(out), "OUT").encode()
    digests.update((p.relative_to(out).as_posix(), p.read_bytes())
                   for p in out.rglob("*") if p.is_file())
    return {k: hashlib.sha256(v).hexdigest() for k, v in sorted(digests.items())}


def run(out: pathlib.Path) -> int:
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} already holds files")
    digests, failed = {}, False
    for name, command, variants in MANIFEST:
        got = _run_one(command.split(), out / name)
        for i, extra in enumerate(variants, 1):
            other = _run_one((command + " " + extra).split(), out / f"{name}~{i}")
            if moved := sorted(k for k in got.keys() | other.keys() if got.get(k) != other.get(k)):
                print(f"{name}~{i} ({extra}) differs: {', '.join(moved)}")
                failed = True
            else:
                shutil.rmtree(out / f"{name}~{i}")
        digests.update((f"{name}/{k}", v) for k, v in got.items())
    doc = {"settings": {k: os.environ.get(k) for k in KNOWN_TO_DIFFER}, "digests": digests}
    (out / "digests.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests of {len(MANIFEST)} entries in {out / 'digests.json'}")
    return int(failed)


def compare(a: pathlib.Path, b: pathlib.Path) -> int:
    left, right = (json.loads((p / "digests.json").read_text()) for p in (a, b))
    skip = {f: k for k, files in KNOWN_TO_DIFFER.items()
            if left["settings"].get(k) != right["settings"].get(k) for f in files}
    keys = sorted(left["digests"].keys() | right["digests"].keys())
    differ = [k for k in keys if left["digests"].get(k) != right["digests"].get(k)]
    for k in differ:
        print(f"skipped, {skip[k]} differs: {k}" if k in skip else f"differs: {k}")
    differ = [k for k in differ if k not in skip]
    print(f"{len(differ)} of {len(keys)} digests differ")
    return int(bool(differ))


if __name__ == "__main__":
    command, *paths = sys.argv[1:] or [""]
    if (command, len(paths)) not in (("run", 1), ("compare", 2)):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    sys.exit({"run": run, "compare": compare}[command](*map(pathlib.Path, paths)))
