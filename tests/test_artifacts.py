"""The artifact ledger, tools/artifacts.py, on a one-entry manifest."""

import hashlib
import importlib.util
import json
import os
from pathlib import Path

import pytest

from limitlab import LimitLabError, Settings
from limitlab.cli import build_parser

_spec = importlib.util.spec_from_file_location(
    "artifacts", Path(__file__).resolve().parent.parent / "tools" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifacts)

LIMITS = "limits --system scalar-linear"


@pytest.fixture
def manifest(monkeypatch):
    """Set the manifest to one ``limits`` entry with the given variants."""
    def use(*variants):
        monkeypatch.setattr(artifacts, "MANIFEST", [("limits", LIMITS, list(variants))])
    use()
    return use


def digests(out: Path) -> dict:
    return json.loads((out / "digests.json").read_text())


def rewrite(out: Path, key: str) -> None:
    """Flip the last hex digit of ``key``'s digest in ``out``'s ledger."""
    doc = digests(out)
    digest = doc["digests"][key]
    doc["digests"][key] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    (out / "digests.json").write_text(json.dumps(doc))


def test_run_digests_every_file_and_both_printouts(tmp_path, capsys, manifest):
    out = tmp_path / "a"
    assert artifacts.run(out) == 0
    doc = digests(out)
    files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in out.rglob("*") if p.is_file() and p.name != "digests.json"}
    assert "limits/catalog.json" in files and "limits/render/catalog.S0.xy" in files
    assert doc["digests"] == {**files, "limits/<stdout>": doc["digests"]["limits/<stdout>"],
                              "limits/<report>": doc["digests"]["limits/<report>"]}
    assert doc["settings"] == {"NPY_DISABLE_CPU_FEATURES":
                               os.environ.get("NPY_DISABLE_CPU_FEATURES")}
    # the printouts name their directory as OUT, so a run elsewhere matches
    assert artifacts.run(tmp_path / "elsewhere") == 0
    assert artifacts.compare(out, tmp_path / "elsewhere") == 0
    assert capsys.readouterr().out.endswith(f"0 of {len(doc['digests'])} digests differ\n")


def test_a_variant_that_writes_the_same_bytes_passes_and_leaves_no_directory(
        tmp_path, capsys, manifest):
    manifest(f"--set tol_cluster={Settings().tol_cluster!r}")
    assert artifacts.run(tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["digests.json", "limits"]


def test_a_variant_that_changes_bytes_fails_the_run(tmp_path, capsys, manifest):
    manifest("--set tol_cluster=0.5")
    assert artifacts.run(tmp_path) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("limits~1 (--set tol_cluster=0.5) differs: ")
    assert "catalog.json" in line
    assert (tmp_path / "limits~1" / "catalog.json").exists()     # kept to inspect


def test_compare_fails_on_one_flipped_digest(tmp_path, capsys, manifest):
    for d in "ab":
        assert artifacts.run(tmp_path / d) == 0
    rewrite(tmp_path / "b", "limits/catalog.json")
    capsys.readouterr()
    assert artifacts.compare(tmp_path / "a", tmp_path / "b") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "differs: limits/catalog.json" and lines[1].startswith("1 of ")


def test_compare_skips_exactly_the_files_of_a_setting_that_differs(
        tmp_path, capsys, manifest, monkeypatch):
    monkeypatch.setattr(artifacts, "KNOWN_TO_DIFFER", {"LEDGER_KERNEL": ["limits/catalog.json"]})
    for d in "abc":
        monkeypatch.setenv("LEDGER_KERNEL", "x" if d != "c" else "y")
        assert artifacts.run(tmp_path / d) == 0
    for d in "bc":
        rewrite(tmp_path / d, "limits/catalog.json")
    # the same setting: the file is compared
    assert artifacts.compare(tmp_path / "a", tmp_path / "b") == 1
    capsys.readouterr()
    # another setting: that file is skipped, and only that file
    assert artifacts.compare(tmp_path / "a", tmp_path / "c") == 0
    skipped, total = capsys.readouterr().out.splitlines()
    assert skipped == "skipped, LEDGER_KERNEL differs: limits/catalog.json"
    assert total.startswith("0 of ")
    rewrite(tmp_path / "c", "limits/<stdout>")
    assert artifacts.compare(tmp_path / "a", tmp_path / "c") == 1
    assert "differs: limits/<stdout>" in capsys.readouterr().out.splitlines()


def test_run_refuses_an_out_that_holds_files(tmp_path, manifest):
    (tmp_path / "kept").write_text("x")
    with pytest.raises(SystemExit, match="already holds files"):
        artifacts.run(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]


def test_a_command_that_fails_stops_the_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(artifacts, "MANIFEST", [("none", "limits --system none", [])])
    with pytest.raises(SystemExit, match="exited 2"):
        artifacts.run(tmp_path / "a")


def test_a_report_with_nothing_to_render_is_digested_not_fatal(tmp_path, monkeypatch):
    # report exits 3 beside a trajectory alone: the exit status and both
    # printouts are the entry's report digest
    monkeypatch.setattr(artifacts, "MANIFEST",
                        [("orbit", "simulate --system mobius --x0 0.5 --steps 3", [])])
    assert artifacts.run(tmp_path / "a") == 0
    doc = digests(tmp_path / "a")
    refusal = ('exit 3\n{"error": "MissingArtifactError", '
               '"message": "no renderable artifacts under OUT"}\n')
    assert doc["digests"]["orbit/<report>"] == hashlib.sha256(refusal.encode()).hexdigest()
    assert sorted(doc["digests"]) == ["orbit/<report>", "orbit/<stdout>", "orbit/trajectory.csv"]
    # any other failure of report still stops the run
    def fail(args):
        raise LimitLabError("unreadable")
    monkeypatch.setattr(artifacts.cli, "cmd_report", fail)
    with pytest.raises(SystemExit, match="report .* exited 3"):
        artifacts.run(tmp_path / "b")


def test_every_manifest_command_parses_and_none_runs_twice():
    names = [name for name, _, _ in artifacts.MANIFEST]
    commands = [command for _, command, _ in artifacts.MANIFEST]
    assert len(set(names)) == len(names) and len(set(commands)) == len(commands)
    for _, command, variants in artifacts.MANIFEST:
        for extra in ["", *variants]:
            build_parser().parse_args([*command.split(), *extra.split(), "--out", "x"])
