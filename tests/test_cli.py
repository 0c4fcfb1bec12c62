"""The command line, exercised in-process through main(argv)."""

import json
from pathlib import Path

import numpy as np
import pytest

from limitlab import Settings
from limitlab.cli import _render, main
from limitlab.serialize import validate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    return json.loads(path.read_text())


def stderr_payload(err):
    lines = [l for l in err.splitlines() if l.strip()]
    assert len(lines) == 1, f"expected a single JSON error line, got {err!r}"
    return json.loads(lines[0])


# a line the report renderer of each artifact kind writes
_RENDERED = {
    "limit-set-catalog": "label  shape",
    "tradeoff-report": "min-sep",
    "verify-report": "max residual",
    "spectral-split": "subspace dims:",
    "demo-summary": "rational-fixed-points: ok",
    "basin-summary": "label  nodes",
    "consistency-report": "consistent: ",
    "pushforward-report": "one-sided",
    "fit-report": "gram condition",
    "learned-lift": "lift of mobius: eigenvalues",
}


def assert_report_renders_each_artifact(capsys, directory):
    """``report --dir`` on ``directory`` draws every JSON artifact there in a
    section of its own, by the renderer of its kind."""
    code, out, err = run(capsys, "report", "--dir", str(directory))
    assert code == 0 and err == ""
    assert "(no renderer for kind" not in out
    sections = dict(block.split(" ==\n", 1) for block in out.split("== ")[1:])
    artifacts = sorted(directory.glob("*.json"))
    assert artifacts
    for path in artifacts:
        assert _RENDERED[read_json(path)["kind"]] in sections[path.name]


@pytest.fixture
def no_orbit(monkeypatch):
    """Fail the test if any module steps an orbit or a checked batch."""
    import limitlab

    def refuse(*args, **kwargs):
        raise AssertionError("an orbit was stepped")

    for module in (limitlab.dynamics, limitlab.limits, limitlab.lifting, limitlab.immersion):
        monkeypatch.setattr(module, "iterate_batch", refuse)


# -- happy paths ---------------------------------------------------------------

def test_simulate_writes_trajectory(tmp_path, capsys):
    code, out, err = run(capsys, "simulate", "--system", "mobius",
                         "--x0", "0", "--steps", "5", "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert "termination=completed" in out
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "k,x1"
    assert len([l for l in lines if not l.startswith("#")]) == 7  # header + 6 states


def test_simulate_backward(tmp_path, capsys):
    code, out, _ = run(capsys, "simulate", "--system", "mobius", "--backward",
                       "--x0", "0.5", "--steps", "3", "--out", str(tmp_path))
    assert code == 0
    assert "direction=backward" in out


def test_limits_writes_catalog(tmp_path, capsys):
    code, out, err = run(capsys, "limits", "--system", "mobius",
                         "--out", str(tmp_path))
    assert code == 0 and err == ""
    doc = read_json(tmp_path / "catalog.json")
    validate(doc, "limit-set-catalog")
    assert [m["label"] for m in doc["members"]] == ["S0", "S1"]
    assert "label" in out and "S0" in out


def test_limits_honors_seed_list_and_backward(tmp_path, capsys):
    code, out, _ = run(capsys, "limits", "--system", "mobius", "--backward",
                       "--seeds", "0.0", "--out", str(tmp_path))
    assert code == 0
    doc = read_json(tmp_path / "catalog.json")
    assert len(doc["members"]) == 1
    pts = np.array(doc["members"][0]["representative_points"])
    assert np.allclose(pts, 1.0, atol=1e-6)   # backward time flips stability


def test_basins_writes_csv_and_summary(tmp_path, capsys):
    code, out, err = run(capsys, "basins", "--system", "mobius",
                         "--domain=-1,1", "--resolution", "41",
                         "--out", str(tmp_path))
    assert code == 0 and err == ""
    doc = read_json(tmp_path / "basins.json")
    validate(doc, "basin-summary")
    assert doc["resolution"] == [41]
    assert doc["counts"] == {"S0": 40, "S1": 1}
    assert doc["witnesses"] and doc["witnesses"][0]["limit_label"] == "S1"
    assert "witness" in out
    first_rows = (tmp_path / "basins.csv").read_text().splitlines()[:3]
    assert first_rows == ["i,label", "0,S0", "1,S0"]


def test_basins_threads_do_not_change_output(tmp_path, capsys):
    # in 2-d a chunk of the column-major grid is a strided slice of it
    for system, domain in [("mobius", "-1,1"), ("rotation-scaling", "-2,2;-2,2")]:
        outputs = []
        for threads in ("1", "4"):
            d = tmp_path / system / f"t{threads}"
            code, _, _ = run(capsys, "basins", "--system", system, f"--domain={domain}",
                             "--resolution", "41", "--threads", threads, "--out", str(d))
            assert code == 0
            outputs.append([(d / name).read_bytes() for name in ("basins.csv", "basins.json")])
        assert outputs[0] == outputs[1], system


def test_verify_reports_ok_on_default_domain(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--system", "cot-map",
                         "--out", str(tmp_path))
    assert code == 0 and err == ""
    doc = read_json(tmp_path / "verify.json")
    validate(doc, "verify-report")
    assert doc["status"] == "ok"
    assert doc["conjugacy"]["max_residual"] < 1e-10
    assert doc["injectivity"]["n_collisions"] == 0
    assert "status: ok" in out


def test_verify_with_no_separated_pair_reports_a_null_ratio(tmp_path, capsys):
    # every sample pair of this domain is within delta_sep of each other
    code, out, err = run(capsys, "verify", "--system", "cot-map",
                         "--domain=1.0,1.0005", "--out", str(tmp_path))
    assert code == 0 and err == ""
    doc = read_json(tmp_path / "verify.json")
    validate(doc, "verify-report")
    assert doc["injectivity"]["pairs_checked"] == 0
    assert doc["injectivity"]["min_separation_ratio"] is None
    assert "min separation ratio n/a" in out
    code, out, err = run(capsys, "report", "--dir", str(tmp_path))
    assert code == 0 and err == ""
    assert "min separation ratio n/a" in out


def test_sweep_with_no_separated_pair_reports_null_ratios(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--system", "scalar-linear",
                       "--domain=-2e-4,2e-4", "--out", str(tmp_path))
    assert code == 0 and err == ""
    doc = read_json(tmp_path / "sweep.json")
    validate(doc, "tradeoff-report")
    fitted = [r for r in doc["rows"] if r["error"] is None]
    assert fitted and all(r["min_sep_ratio"] is None for r in fitted)


# Features near 1e180 (monomial:3 on +-1e60) or states near 1e200 are finite,
# but distances between them overflow; the probes that compare those
# distances refuse them, and the sweep keeps the refusal as an error row.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,collapse_failed", [
    (["--domain=-1e60,1e60", "--dicts", "monomial:1,monomial:2,monomial:3",
      "--ridges", "0,1e-4"], [(4, 1e-4)]),
    (["--domain=-1e200,1e200", "--dicts", "monomial:1"], []),
    (["--domain=-1e200,1e200", "--dicts", "monomial:1", "--ridges", "0,1e-4"],
     [(2, 1e-4)]),
])
def test_sweep_keeps_overflowing_probe_distances_as_error_rows(
        tmp_path, capsys, argv, collapse_failed):
    code, _, err = run(capsys, "sweep", "--system", "mobius", *argv,
                       "--out", str(tmp_path))
    assert code == 0 and err == ""
    doc = read_json(tmp_path / "sweep.json")
    validate(doc, "tradeoff-report")
    failed = [(r["dict_size"], r["ridge"]) for r in doc["rows"]
              if (r["error"] or "").startswith("collapse:")]
    assert failed == collapse_failed
    for r in doc["rows"]:
        if (r["dict_size"], r["ridge"]) in collapse_failed:
            assert "(non-finite-distance)" in r["error"]
            assert r["residual_heldout"] is not None
        elif r["ridge"] == 0.0:
            assert "gram condition" in r["error"]
        else:
            assert r["error"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_3d_jordan_block_runs_on_its_own_default_seeds(tmp_path, capsys):
    # the default seeds follow --param m: e1, e2, e3 and (1, 1, 1), all
    # drawn to the origin at lam=0.9; they used to be the 2-d block's
    jordan = ("--system", "jordan", "--param", "m=3", "--param", "lam=0.9")
    for argv in [("limits",), ("basins", "--domain=-1,1;-1,1;-1,1", "--resolution", "5"),
                 ("verify",), ("sweep", "--dicts", "monomial:1")]:
        code, _, err = run(capsys, *argv, *jordan, "--out", str(tmp_path / argv[0]))
        assert (code, err) == (0, ""), argv
    member, = read_json(tmp_path / "limits" / "catalog.json")["members"]
    assert (member["shape"], member["n_estimates"]) == ("fixed-point", 4)
    assert read_json(tmp_path / "basins" / "basins.json")["counts"] == {"S0": 125}
    report = read_json(tmp_path / "verify" / "verify.json")
    assert report["status"] == "ok" and report["pushforward"] is not None
    assert report["conjugacy"]["samples_used"] == 6 ** 3 + 512
    assert len(read_json(tmp_path / "sweep" / "sweep.json")["rows"]) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_refuses_overflowing_sample_distances(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--system", "jordan",
                       "--domain=-1e200,1e200;-1e200,1e200", "--out", str(tmp_path))
    assert code == 3
    payload = stderr_payload(err)
    assert payload["error"] == "domain-error"
    assert payload["reason"] == "non-finite-distance"
    assert payload["point"] == [-1e200, -1e200]


def test_verify_that_exceeds_its_tolerance_exits_3(tmp_path, capsys):
    # cot-map's chart is exact but for rounding, which a zero tolerance fails
    code, out, err = run(capsys, "verify", "--system", "cot-map", "--x0", "1.0",
                         "--tol", "0", "--out", str(tmp_path))
    assert code == 3 and "status: failed" in out
    payload = stderr_payload(err)
    assert (payload["error"], payload["system"]) == ("verification-failed", "cot-map")
    report = read_json(tmp_path / "verify.json")
    validate(report, "verify-report")
    assert report["status"] == "failed"
    assert 0.0 < report["conjugacy"]["max_residual"] < 1e-15


def test_basins_of_a_grid_that_escapes_in_the_burn(tmp_path, capsys):
    # x -> 2x from [0.5, 1] passes the escape radius during the burn, so every
    # row stops before the settle window and no pair can be a witness
    code, _, err = run(capsys, "basins", "--system", "scalar-linear", "--param", "a=2",
                       "--seeds", "0", "--domain=0.5,1", "--resolution", "5",
                       "--out", str(tmp_path))
    assert (code, err) == (0, "")
    doc = read_json(tmp_path / "basins.json")
    assert (doc["counts"], doc["witnesses"]) == ({"escaped": 5}, [])


# x^32 on [-1e5, 1e5] is finite, but the Gram matrix's products of features
# overflow to +inf on some rows and -inf on others, and their sums are NaN
_NAN_GRAM = ("--system", "scalar-linear", "--domain=-1e5,1e5")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ridge", ["0", "1"])
def test_learn_refuses_a_gram_matrix_with_nan_entries(tmp_path, capsys, ridge):
    code, _, err = run(capsys, "learn", *_NAN_GRAM, "--dict", "monomial", "--order", "32",
                       "--ridge", ridge, "--out", str(tmp_path))
    assert code == 3
    payload = stderr_payload(err)
    assert payload["error"] == "SingularGramError" and "NaN" in payload["message"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_keeps_a_gram_matrix_with_nan_entries_as_error_rows(tmp_path, capsys):
    sweep = ("sweep", *_NAN_GRAM, "--ridges", "0,1")
    code, _, err = run(capsys, *sweep, "--dicts", "monomial:32,monomial:2",
                       "--out", str(tmp_path / "both"))
    assert (code, err) == (0, "")
    rows = read_json(tmp_path / "both" / "sweep.json")["rows"]
    assert [(r["dict_size"], r["ridge"]) for r in rows] == [(3, 0.0), (3, 1.0),
                                                            (33, 0.0), (33, 1.0)]
    assert all("NaN" in r["error"] for r in rows[2:])
    assert rows[1]["error"] is None
    code, _, _ = run(capsys, *sweep, "--dicts", "monomial:2", "--out", str(tmp_path / "alone"))
    assert code == 0
    assert read_json(tmp_path / "alone" / "sweep.json")["rows"] == rows[:2]


def test_learn_recovers_the_rational_cascade(tmp_path, capsys):
    code, out, err = run(capsys, "learn", "--system", "mobius",
                         "--dict", "rational-pole", "--order", "3",
                         "--domain=-0.9,0.5", "--out", str(tmp_path))
    assert code == 0 and err == ""
    validate(read_json(tmp_path / "fit.json"), "fit-report")
    doc = read_json(tmp_path / "lift.json")
    validate(doc, "learned-lift")
    ev = np.array(doc["eigenvalues"])
    assert np.allclose(ev[:, 0], [1.0, 0.5, 0.25, 0.125], atol=1e-9)
    assert np.abs(ev[:, 1]).max() < 1e-12
    assert "lift of mobius: eigenvalues" in out
    assert_report_renders_each_artifact(capsys, tmp_path)


def test_sweep_writes_both_artifacts(tmp_path, capsys):
    code, out, err = run(capsys, "sweep", "--system", "cot-map",
                         "--dicts", "fourier:0,fourier:1",
                         "--ridges", "0.0", "--out", str(tmp_path))
    assert code == 0 and err == ""
    doc = read_json(tmp_path / "sweep.json")
    validate(doc, "tradeoff-report")
    assert [r["dict_size"] for r in doc["rows"]] == [1, 3]
    csv_head = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert csv_head.startswith("dict_kind,dict_size,ridge,")


def test_report_renders_saved_artifacts(tmp_path, capsys):
    code, _, _ = run(capsys, "limits", "--system", "mobius", "--out", str(tmp_path))
    assert code == 0
    code, _, _ = run(capsys, "basins", "--system", "scalar-linear",
                     "--domain=-1,1", "--resolution", "21", "--out", str(tmp_path))
    assert code == 0
    code, out, err = run(capsys, "report", "--dir", str(tmp_path))
    assert code == 0 and err == ""
    render = tmp_path / "render"
    assert (render / "catalog.S0.xy").exists()
    assert (render / "catalog.S1.xy").exists()
    ppm = (render / "basins.ppm").read_text()
    assert ppm.startswith("P3\n21 1\n255\n")
    assert "rendered" in out


def test_report_renders_a_2d_basin_raster(tmp_path, capsys):
    code, _, _ = run(capsys, "basins", "--system", "rotation-scaling",
                     "--domain=-2,2;-2,2", "--resolution", "5", "--out", str(tmp_path))
    assert code == 0
    code, _, err = run(capsys, "report", "--dir", str(tmp_path))
    assert code == 0 and err == ""
    ppm = (tmp_path / "render" / "basins.ppm").read_text()
    assert ppm.startswith("P3\n5 5\n255\n")
    pixels = [row.split("  ") for row in ppm.splitlines()[3:]]
    assert len(pixels) == 5 and all(len(row) == 5 for row in pixels)
    # the centre node is the origin, the fixed point; every other node
    # settles on the unit circle
    others = {p for i, row in enumerate(pixels) for j, p in enumerate(row)
              if (i, j) != (2, 2)}
    assert len(others) == 1 and pixels[2][2] not in others


def test_report_out_dot_writes_into_the_working_directory(tmp_path, capsys, monkeypatch):
    # `--out .` is the working directory; with no --out the files go to DIR/render
    artifacts, cwd = tmp_path / "artifacts", tmp_path / "cwd"
    code, _, _ = run(capsys, "limits", "--system", "mobius", "--out", str(artifacts))
    assert code == 0
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    xy = ["catalog.S0.xy", "catalog.S1.xy"]
    code, _, err = run(capsys, "report", "--dir", str(artifacts), "--out", ".")
    assert code == 0 and err == ""
    assert sorted(p.name for p in cwd.iterdir()) == xy
    assert not (artifacts / "render").exists()
    code, _, err = run(capsys, "report", "--dir", str(artifacts))
    assert code == 0 and err == ""
    assert sorted(p.name for p in (artifacts / "render").iterdir()) == xy
    assert sorted(p.name for p in cwd.iterdir()) == xy


def test_report_on_empty_directory_fails(tmp_path, capsys):
    code, _, err = run(capsys, "report", "--dir", str(tmp_path))
    assert code == 3
    assert stderr_payload(err)["error"] == "MissingArtifactError"
    # it creates no render directory in a directory it rejects
    assert list(tmp_path.iterdir()) == []


def test_report_on_a_missing_directory_fails_and_creates_nothing(tmp_path, capsys):
    code, _, err = run(capsys, "report", "--dir", str(tmp_path / "nothere"))
    assert code == 3
    assert stderr_payload(err)["error"] == "MissingArtifactError"
    assert list(tmp_path.iterdir()) == []


def test_report_skips_a_basin_csv_without_nodes(tmp_path, capsys):
    (tmp_path / "basins.csv").write_text("i,j,label\n")
    code, _, err = run(capsys, "report", "--dir", str(tmp_path))
    assert code == 3
    assert stderr_payload(err)["error"] == "MissingArtifactError"
    assert [p.name for p in tmp_path.iterdir()] == ["basins.csv"]


# one run of each subcommand that writes a report
_REPORT_WRITERS = {
    "limits": ["limits", "--system", "mobius"],
    "basins": ["basins", "--system", "rotation-scaling", "--domain=-2,2;-2,2",
               "--resolution", "21"],
    "verify": ["verify", "--system", "cot-map", "--x0", "1.0"],
    "learn": ["learn", "--system", "mobius", "--domain=-0.9,0.5", "--dict", "rational-pole",
              "--order", "3"],
    "sweep": ["sweep", "--system", "cot-map", "--dicts", "fourier:0,fourier:1",
              "--ridges", "0,1e-8"],
    "demo": ["demo", "--seed", "42"],
}


def report_sections(out):
    """``report`` stdout as ``{file name: the lines of its section}``."""
    sections, name = {}, None
    for line in out.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            name = line[3:-3]
            sections[name] = []
        elif name is not None and line:
            sections[name].append(line)
        else:
            name = None
    return sections


@pytest.mark.parametrize("command", list(_REPORT_WRITERS))
def test_subcommands_print_their_reports_as_report_renders_them(tmp_path, capsys, command):
    code, out, err = run(capsys, *_REPORT_WRITERS[command], "--out", str(tmp_path))
    assert code == 0 and err == ""
    written = [line.removeprefix("wrote ") for line in out.splitlines()
               if line.startswith("wrote ") and line.endswith(".json")]
    assert written
    code, rendered, _ = run(capsys, "report", "--dir", str(tmp_path))
    assert code == 0
    sections = report_sections(rendered)
    for path in written:
        lines = sections[Path(path).name]
        assert lines
        # the same lines, one after another, in the subcommand's own output
        assert "\n" + "\n".join(lines) + "\n" in "\n" + out


def test_every_rendered_kind_is_a_bundled_schema():
    from limitlab import cli
    from limitlab.serialize import schema_names

    assert set(cli._RENDERERS) <= set(schema_names())


# -- error paths -----------------------------------------------------------------

def test_unknown_system_is_a_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "limits", "--system", "henon",
                       "--out", str(tmp_path))
    assert code == 2
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert "henon" in payload["message"]


def test_bad_param_is_a_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "simulate", "--system", "jordan",
                       "--param", "m=9", "--x0", "1,0", "--out", str(tmp_path))
    assert code == 2
    assert stderr_payload(err)["error"] == "usage"


@pytest.mark.parametrize("m", ["2.5", "2.9999"])
def test_a_non_integral_jordan_block_size_is_a_usage_error(tmp_path, capsys, m):
    # it used to run as jordan(lam=1,m=2) and exit 0
    code, _, err = run(capsys, "simulate", "--system", "jordan",
                       "--param", f"m={m}", "--x0", "1,0", "--out", str(tmp_path))
    assert code == 2
    assert stderr_payload(err)["error"] == "usage"
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("command,argv", [
    ("basins", []), ("verify", []), ("learn", []), ("sweep", ["--dicts", "monomial:1"])])
def test_an_infinite_domain_bound_is_a_usage_error_before_any_orbit(
        tmp_path, capsys, no_orbit, command, argv):
    # these runs grid or sample the region: they used to step the catalog's
    # orbits and then fail, naming a grid rule or a sample box the command
    # line has no option for
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, "--system", "mobius", "--domain=-inf,0.5",
                         *argv, "--out", str(out_dir))
    assert code == 2 and out == ""
    payload = stderr_payload(err)
    assert payload == {"error": "usage", "message":
                       f"--domain must have finite bounds for {command}, got '-inf,0.5'"}
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,argv", [
    ("basins", []), ("verify", []), ("learn", []), ("sweep", ["--dicts", "monomial:1"])])
def test_a_domain_wider_than_the_float_range_is_a_usage_error_before_any_orbit(
        tmp_path, capsys, no_orbit, command, argv):
    # its bounds are finite but its width is not: basins gridded it with NaN
    # and inf nodes, and the others' uniform draws overflowed
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, command, "--system", "scalar-linear",
                         "--domain=-1e308,1e308", *argv, "--out", str(out_dir))
    assert code == 2 and out == ""
    assert stderr_payload(err) == {"error": "usage", "message":
                                   f"--domain must have widths within the float range "
                                   f"for {command}, got '-1e308,1e308'"}
    assert not out_dir.exists()


def test_simulate_refuses_a_negative_step_count_naming_the_flag(tmp_path, capsys):
    code, out, err = run(capsys, "simulate", "--system", "mobius", "--x0", "0",
                         "--steps=-1", "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert stderr_payload(err) == {"error": "usage",
                                   "message": "--steps must be >= 0, got -1"}
    assert not (tmp_path / "out").exists()


def test_domain_axis_must_be_ordered(tmp_path, capsys):
    code, _, err = run(capsys, "limits", "--system", "mobius",
                       "--domain=1,-1", "--out", str(tmp_path))
    assert code == 2
    assert "lo < hi" in stderr_payload(err)["message"]


@pytest.mark.parametrize("command,flag,value", [
    ("basins", "--resolution", "0"), ("basins", "--resolution", "-3"),
    ("basins", "--threads", "0"), ("basins", "--threads", "-2"),
    ("demo", "--threads", "0"), ("demo", "--threads", "-2")])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, command, flag, value):
    argv = ["--system", "mobius", "--domain=-1,1"] if command == "basins" else []
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, command, *argv, flag, value, "--out", str(out_dir))
    assert code == 2
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert payload["message"] == f"{flag} must be >= 1, got {value}"
    assert not out_dir.exists()


@pytest.mark.parametrize("command,argv", [
    ("basins", ["--system", "mobius", "--domain=-1,1", "--resolution", "3"]),
    ("demo", [])], ids=["basins", "demo"])
def test_thread_counts_above_the_limit_are_usage_errors(tmp_path, capsys, command, argv):
    # the limit is a constant, not the machine's core count
    from limitlab import config
    out_dir = tmp_path / "out"
    threads = config.MAX_THREADS + 1
    code, _, err = run(capsys, command, *argv, "--threads", str(threads),
                       "--out", str(out_dir))
    assert code == 2
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert payload["message"] == f"--threads must be <= {config.MAX_THREADS}, got {threads}"
    assert not out_dir.exists()


@pytest.mark.parametrize("command,flag,value,message", [
    ("verify", "--tol", "nan", "--tol must be finite and >= 0, got nan"),
    ("verify", "--tol", "-1", "--tol must be finite and >= 0, got -1.0"),
    ("verify", "--tol", "inf", "--tol must be finite and >= 0, got inf"),
    ("learn", "--ridge", "nan", "--ridge must be finite and >= 0, got nan"),
    ("learn", "--ridge", "-0.5", "--ridge must be finite and >= 0, got -0.5"),
    ("learn", "--pole", "nan", "--pole must be finite, got nan"),
    ("learn", "--pole", "inf", "--pole must be finite, got inf"),
    ("sweep", "--ridges", "0,-1", "--ridges must be finite and >= 0, got -1.0"),
    ("sweep", "--ridges", "nan", "--ridges must be finite and >= 0, got nan"),
    ("sweep", "--ridges", "0,abc", "--ridges: 'abc' is not a number"),
    ("sweep", "--pole", "-inf", "--pole must be finite, got -inf"),
    ("sweep", "--auto-seeds", "-3", "--auto-seeds must be >= 0, got -3"),
    ("basins", "--domain", "-1,abc", "--domain: 'abc' is not a number"),
    ("limits", "--seeds", "0.5,abc", "--seeds: 'abc' is not a number"),
    ("simulate", "--x0", "abc", "--x0: 'abc' is not a number"),
    ("verify", "--seed", "-3", "--seed must be an integer >= 0, got -3"),
    ("learn", "--seed", "-3", "--seed must be an integer >= 0, got -3"),
    ("sweep", "--seed", "-3", "--seed must be an integer >= 0, got -3"),
    ("limits", "--seed", "-3", "--seed must be an integer >= 0, got -3"),
    ("basins", "--seed", "-3", "--seed must be an integer >= 0, got -3"),
    ("verify", "--seed", "1.5", "--seed must be an integer >= 0, got '1.5'"),
    ("verify", "--tol", "x", "argument --tol: invalid float value: 'x'"),
    ("basins", "--resolution", "x", "argument --resolution: invalid int value: 'x'")])
def test_numbers_out_of_range_are_usage_errors(tmp_path, capsys, command, flag, value,
                                               message):
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, command, "--system", "mobius", f"{flag}={value}",
                       "--out", str(out_dir))
    assert code == 2
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert payload["message"] == message
    assert not out_dir.exists()


@pytest.mark.parametrize("argv,message", [
    (["demo", "--seed", "abc"], "--seed must be an integer >= 0, got 'abc'"),
    (["simulate", "--system", "mobius", "--x0", "0.5", "--seed=-3"],
     "--seed must be an integer >= 0, got -3"),
    (["limits"], "the following arguments are required: --system"),
    (["limits", "--system", "mobius", "--no-such-option"],
     "unrecognized arguments: --no-such-option")])
def test_parser_errors_are_usage_errors(tmp_path, capsys, argv, message):
    # a value the parser rejects, a missing option and an unknown one are
    # the same JSON usage error as every other, raised before any file
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--out", str(out_dir))
    assert code == 2
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert payload["message"] == message
    assert not out_dir.exists()


def test_sweep_refuses_an_empty_dicts_or_ridges(tmp_path, capsys):
    # an empty value is not the same as leaving the option out
    for flag, message in (("--dicts", "--dicts expects kind:order items, got ''"),
                          ("--ridges", "--ridges: '' is not a number")):
        out_dir = tmp_path / flag.strip("-")
        code, _, err = run(capsys, "sweep", "--system", "cot-map", f"{flag}=",
                           "--out", str(out_dir))
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "usage"
        assert payload["message"] == message
        assert not out_dir.exists()


_EMPTY_DOMAIN = "--domain axis '' must be 'lo,hi' with lo < hi"


@pytest.mark.parametrize("command,argv,message", [
    ("limits", ["--domain="], _EMPTY_DOMAIN),
    ("limits", ["--seeds="], "--seeds point '' has 0 coordinate(s), expected 1"),
    ("simulate", ["--x0", "0", "--domain="], _EMPTY_DOMAIN),
    ("simulate", ["--x0="], "--x0 point '' has 0 coordinate(s), expected 1"),
    ("verify", ["--domain="], _EMPTY_DOMAIN),
    ("verify", ["--x0="], "--x0 point '' has 0 coordinate(s), expected 1"),
    ("basins", ["--domain="], _EMPTY_DOMAIN),
    ("sweep", ["--seeds="], "--seeds point '' has 0 coordinate(s), expected 1")])
def test_empty_option_values_are_usage_errors(tmp_path, capsys, command, argv, message):
    # an empty value is not the same as leaving the option out
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, command, "--system", "mobius", *argv, "--out", str(out_dir))
    assert code == 2
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert payload["message"] == message
    assert not out_dir.exists()


def test_verify_flags_an_undefined_chart_point(tmp_path, capsys):
    # the claimed region contains the point the chart excludes
    code, _, err = run(capsys, "verify", "--system", "mobius",
                       "--domain=-1,1", "--out", str(tmp_path))
    assert code == 3
    payload = stderr_payload(err)
    assert payload["error"] == "immersion-undefined"
    assert payload["immersion_undefined_at"] == 1.0
    assert payload["reason"] == "excluded-point"


def test_simulate_from_the_pole_terminates_gracefully(tmp_path, capsys):
    code, out, err = run(capsys, "simulate", "--system", "mobius",
                         "--x0", "3", "--steps", "2", "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert "termination=singular" in out


def test_simulate_domain_keeps_the_pole(tmp_path, capsys):
    code, out, err = run(capsys, "simulate", "--system", "mobius", "--domain=-5,5",
                         "--x0", "3.0000000001", "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert "steps=0 termination=singular" in out


def test_limits_domain_keeps_the_pole(tmp_path, capsys):
    code, out, err = run(capsys, "limits", "--system", "mobius", "--domain=-5,5",
                         "--seeds=3.0000000001;0.0", "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert "skipped seed 3.0000000001: singular" in out


def test_limits_prints_its_render_then_its_skipped_seeds_then_what_it_wrote(
        tmp_path, capsys):
    code, out, err = run(capsys, "limits", "--system", "mobius", "--domain=-5,5",
                         "--seeds=0.0;3.0;-2.0", "--out", str(tmp_path))
    assert code == 0 and err == ""
    path = tmp_path / "catalog.json"
    assert out == (_render(read_json(path)) + "\n"
                   "skipped seed 3.0: singular\n"
                   f"wrote {path}\n")


def test_learn_prints_its_two_renders_then_its_two_wrote_lines(tmp_path, capsys):
    code, out, err = run(capsys, "learn", "--system", "mobius", "--domain=-0.9,0.5",
                         "--dict", "rational-pole", "--order", "2", "--out", str(tmp_path))
    assert code == 0 and err == ""
    fit, lift = tmp_path / "fit.json", tmp_path / "lift.json"
    assert out == (_render(read_json(fit)) + "\n" + _render(read_json(lift)) + "\n"
                   f"wrote {fit}\nwrote {lift}\n")


def test_sweep_prints_its_skipped_seeds(tmp_path, capsys):
    # the sweep's catalog lacks the seed at the pole; sweep used to say
    # nothing of it, where limits with the same seeds prints the line
    seeds = "--seeds=0;3;2.5"
    code, out, err = run(capsys, "sweep", "--system", "mobius", seeds,
                         "--dicts", "monomial:1", "--out", str(tmp_path / "sweep"))
    assert code == 0 and err == ""
    code, limits_out, _ = run(capsys, "limits", "--system", "mobius", seeds,
                              "--out", str(tmp_path / "limits"))
    assert code == 0
    skipped = [line for line in limits_out.splitlines() if line.startswith("skipped seed")]
    assert skipped == ["skipped seed 3.0: singular"]
    assert [line for line in out.splitlines() if line.startswith("skipped seed")] == skipped


def test_simulate_backward_is_guarded_by_the_domain(tmp_path, capsys):
    code, out, err = run(capsys, "simulate", "--system", "mobius", "--backward",
                         "--domain=-0.5,0.5", "--x0", "0.4", "--steps", "50",
                         "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert "system=mobius direction=backward steps=1 termination=left-domain" in out


def test_limits_backward_is_guarded_by_the_domain(tmp_path, capsys):
    # backward orbits run to the repeller at 1, outside the region: none converges
    code, _, err = run(capsys, "limits", "--system", "mobius", "--backward",
                       "--domain=-0.5,0.5", "--out", str(tmp_path))
    assert code == 3
    assert stderr_payload(err)["error"] == "UnconvergedError"
    assert not (tmp_path / "catalog.json").exists()


def test_pushforward_outside_the_chart_is_a_domain_error(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--system", "mobius", "--x0", "5",
                       "--out", str(tmp_path))
    assert code == 3
    payload = stderr_payload(err)
    assert payload["error"] == "domain-error"
    assert payload["reason"] == "out-of-bounds"
    assert payload["point"] == [5.0]


def test_sweep_guard_is_a_math_error(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--system", "negation",
                       "--auto-seeds", "70", "--dicts", "monomial:1",
                       "--out", str(tmp_path))
    assert code == 3
    assert stderr_payload(err)["error"] == "CatalogGuardError"


def test_sweep_refuses_auto_seeds_with_seeds(tmp_path, capsys, monkeypatch):
    # the catalog seeds are drawn or listed, never both: refused before any work
    import limitlab.cli

    def refuse(*args, **kwargs):
        raise AssertionError("a catalog was built")

    monkeypatch.setattr(limitlab.cli, "catalog_from_seeds", refuse)
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "sweep", "--system", "mobius", "--auto-seeds", "3",
                       "--seeds", "0.1;0.2", "--dicts", "monomial:1", "--out", str(out_dir))
    assert code == 2
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert "--auto-seeds" in payload["message"] and "--seeds" in payload["message"]
    assert not out_dir.exists()


# -- configuration plumbing ---------------------------------------------------------

def test_seed_falls_back_to_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LIMITLAB_SEED", "123")
    code, _, _ = run(capsys, "verify", "--system", "cot-map",
                     "--out", str(tmp_path / "env"))
    assert code == 0
    assert read_json(tmp_path / "env" / "verify.json")["seed"] == 123

    monkeypatch.delenv("LIMITLAB_SEED")
    code, _, _ = run(capsys, "verify", "--system", "cot-map", "--seed", "9",
                     "--out", str(tmp_path / "flag"))
    assert code == 0
    assert read_json(tmp_path / "flag" / "verify.json")["seed"] == 9


def test_demo_refuses_a_negative_seed_before_any_file(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "demo", "--seed=-3", "--out", str(out_dir))
    assert code == 2
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert payload["message"] == "--seed must be an integer >= 0, got -3"
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_a_bad_environment_seed_is_a_usage_error_before_any_file(tmp_path, capsys,
                                                                 monkeypatch, value):
    monkeypatch.setenv("LIMITLAB_SEED", value)
    for argv in (["demo"], ["verify", "--system", "cot-map"], ["limits", "--system", "mobius"],
                 ["simulate", "--system", "mobius", "--x0", "0.5"]):
        out_dir = tmp_path / argv[0]
        code, _, err = run(capsys, *argv, "--out", str(out_dir))
        assert code == 2
        payload = stderr_payload(err)
        assert payload["error"] == "usage"
        assert payload["message"] == f"LIMITLAB_SEED must be an integer >= 0, got {value!r}"
        assert not out_dir.exists()


def test_set_overrides_reach_the_estimator(tmp_path, capsys):
    code, _, _ = run(capsys, "limits", "--system", "scalar-linear",
                     "--seeds", "2.0", "--set", "tol_cluster=0.123",
                     "--out", str(tmp_path))
    assert code == 0
    doc = read_json(tmp_path / "catalog.json")
    assert doc["tol_cluster"] == 0.123


def test_set_basin_window_reaches_the_basin_params(tmp_path, capsys):
    code, _, _ = run(capsys, "basins", "--system", "mobius", "--domain=-1,1",
                     "--resolution", "11", "--set", "basin_window=1",
                     "--out", str(tmp_path))
    assert code == 0
    assert read_json(tmp_path / "basins.json")["params"]["window"] == 1


@pytest.mark.parametrize("setting", ["max_rounds=-1", "burn=-1", "tail=0", "burn=inf",
                                     "burn=2.5", "tol_fp=nan"])
def test_impossible_estimator_settings_are_usage_errors(tmp_path, capsys, setting):
    code, out, err = run(capsys, "limits", "--system", "mobius", "--set", setting,
                         "--out", str(tmp_path))
    assert code == 2
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert setting.split("=")[0] in payload["message"]
    assert not (tmp_path / "catalog.json").exists()


@pytest.mark.parametrize("setting", [
    "tol_cluster=0", "tol_cluster=-0.001", "tol_cluster=inf", "r_div=0", "r_div=-1",
    "r_div=inf", "max_period=-5", "tol_fp=-1", "tol_fp=inf", "tol_settle=-1",
    "tol_settle=inf", "gap_factor=-1", "gap_factor=inf"])
def test_impossible_tolerances_are_usage_errors(tmp_path, capsys, setting):
    # each used to run (tol_cluster=0 wrote two members at separation 0 from
    # one repeated seed), fail on the JSON encoder, or exit 3 as if no seed
    # had converged
    code, _, err = run(capsys, "limits", "--system", "negation", "--seeds=0.3;0.3",
                       "--set", setting, "--out", str(tmp_path))
    assert code == 2
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert payload["message"].startswith(setting.split("=")[0] + " must be")
    assert not (tmp_path / "catalog.json").exists()


@pytest.mark.parametrize("setting", ["no_such_knob=5", "batch=1024"])
def test_unknown_settings_are_usage_errors(tmp_path, capsys, setting):
    code, _, err = run(capsys, "limits", "--system", "mobius", "--set", setting,
                       "--out", str(tmp_path))
    assert code == 2
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert repr(setting.split("=")[0]) in payload["message"]
    assert not (tmp_path / "catalog.json").exists()


_ESTIMATOR = {"burn", "tail", "max_rounds", "tol_settle", "gap_factor", "tol_fp",
              "max_period", "r_div"}
_BASIN = {"basin_burn", "basin_window", "escape_radius"}
_WITNESS = {"witness_depth", "witness_max_pairs"}
# subcommand -> (a cheap command line, the --set names it reads)
_SET_NAMES = {
    "simulate": (["--system", "mobius", "--x0", "0.0"], {"r_div"}),
    "limits": (["--system", "mobius"], _ESTIMATOR | {"tol_cluster"}),
    "basins": (["--system", "mobius", "--domain=-1,1", "--resolution", "11"],
               _ESTIMATOR | {"tol_cluster"} | _BASIN | _WITNESS),
    "verify": (["--system", "cot-map"], _ESTIMATOR),
    "learn": (["--system", "mobius", "--domain=-0.9,0.5"], set()),
    "sweep": (["--system", "mobius", "--dicts", "monomial:1"], _ESTIMATOR | {"tol_cluster"}),
    "demo": ([], _ESTIMATOR | {"tol_cluster"} | _BASIN | _WITNESS),
}
# listed in config.py, but no subcommand passes them to the code that uses them
_NEVER_READ = ["eps_excl", "r_bound", "bound_horizon", "tol_eig", "tol_rank", "delta_sep",
               "delta_img", "grid_samples", "random_samples", "svd_cond_switch",
               "singular_cond", "max_dict_order", "catalog_guard", "seed"]


def _rejected_setting(tmp_path, capsys, command, setting):
    argv, _ = _SET_NAMES[command]
    out_dir = tmp_path / command
    code, _, err = run(capsys, command, *argv, "--set", setting, "--out", str(out_dir))
    assert code == 2, (command, setting)
    payload = stderr_payload(err)
    assert payload["error"] == "usage"
    assert not out_dir.exists() or not any(out_dir.iterdir())
    return payload["message"]


@pytest.mark.parametrize("command", sorted(_SET_NAMES))
def test_each_subcommand_accepts_exactly_the_names_it_reads(tmp_path, capsys, command):
    message = _rejected_setting(tmp_path, capsys, command, "no_such_knob=5")
    assert "'no_such_knob'" in message
    known = message.rsplit("(known: ", 1)[1].rstrip(")")
    assert set(known.split(", ")) - {"none"} == _SET_NAMES[command][1]


@pytest.mark.parametrize("name", _NEVER_READ + ["basin_burn", "tol_cluster"])
def test_names_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, name):
    for command, (_, names) in _SET_NAMES.items():
        if name not in names:
            assert repr(name) in _rejected_setting(tmp_path, capsys, command, f"{name}=5")


@pytest.mark.parametrize("command,setting", [
    ("simulate", "r_div=0"), ("simulate", "r_div=-1"), ("simulate", "r_div=inf"),
    ("basins", "witness_depth=0"), ("basins", "witness_max_pairs=-1"),
    ("demo", "witness_depth=0"), ("demo", "witness_max_pairs=-1"),
    ("demo", "basin_window=0"), ("demo", "tol_cluster=-1")])
def test_impossible_settings_are_rejected_before_any_orbit(tmp_path, capsys, no_orbit,
                                                          command, setting):
    # simulate used to run with r_div=0 and call a converging orbit diverged;
    # basins refused a witness setting only after settling the whole grid, and
    # demo after writing its mobius catalog
    message = _rejected_setting(tmp_path, capsys, command, setting)
    assert message.startswith(setting.split("=")[0] + " must be")
    assert not (tmp_path / command).exists()


def test_demo_passes_tol_cluster_and_the_basin_settings_to_their_readers(tmp_path, capsys,
                                                                        monkeypatch):
    # the demo's first catalog reads tol_cluster and its first basin grid the
    # basin settings; the run stops there
    import limitlab.limits

    seen = {}

    class Stop(Exception):
        pass

    def catalog(system, seeds, cfg):
        seen["tol_cluster"] = cfg.tol_cluster
        return limitlab.limits.LimitSetCatalog(members=(), tol_cluster=cfg.tol_cluster), []

    def basins(system, catalog, region, resolution, cfg, threads):
        seen["basin"] = cfg
        raise Stop

    monkeypatch.setattr(limitlab.limits, "catalog_from_seeds", catalog)
    monkeypatch.setattr(limitlab.limits, "compute_basins", basins)
    with pytest.raises(Stop):
        main(["demo", "--out", str(tmp_path), "--set", "tol_cluster=0.25",
              "--set", "basin_burn=7", "--set", "basin_window=3", "--set", "escape_radius=9"])
    assert seen == {"tol_cluster": 0.25,
                    "basin": Settings(tol_cluster=0.25, basin_burn=7, basin_window=3,
                                      escape_radius=9.0)}


def test_demo_passes_tol_cluster_to_the_consistency_check(tmp_path, capsys):
    # the cot example's forward/backward comparison used to keep the default
    # tol_cluster whatever --set said
    code, _, _ = run(capsys, "demo", "--seed", "42", "--set", "tol_cluster=0.5",
                     "--out", str(tmp_path))
    assert code == 0
    assert read_json(tmp_path / "cot-consistency.json")["tolerance"] == 0.5


def test_settings_defaults_are_the_config_constants():
    # Settings() is the run with no --set, and each default is the
    # constant of that name in config, of its type
    import dataclasses
    import types

    from limitlab import cli, config
    defaults = Settings()
    assert defaults == cli._settings(types.SimpleNamespace(set=None), ())
    for f in dataclasses.fields(Settings):
        value, want = getattr(defaults, f.name), getattr(config, f.name.upper())
        assert (value, type(value)) == (want, type(want)), f.name


@pytest.mark.parametrize("setting", ["basin_window=0", "witness_depth=0", "tol_cluster=0",
                                     "burn=-1"])
def test_settings_reject_what_set_rejects_with_its_message(tmp_path, capsys, setting):
    name, value = setting.split("=")
    message = _rejected_setting(tmp_path, capsys, "basins", setting)
    with pytest.raises(ValueError) as exc:
        Settings(**{name: type(getattr(Settings(), name))(value)})
    assert str(exc.value) == message


def test_gap_factor_reaches_the_clustering_and_the_match_tolerances(tmp_path, capsys):
    # the clustering used to keep the default 2.0, so catalog.json recorded it
    # and every match tolerance was computed with it
    argv = ["--system", "rotation-scaling", "--set", "gap_factor=5"]
    code, _, _ = run(capsys, "limits", *argv, "--out", str(tmp_path / "limits"))
    assert code == 0
    catalog = read_json(tmp_path / "limits" / "catalog.json")
    assert catalog["gap_factor"] == 5.0
    code, _, _ = run(capsys, "basins", *argv, "--domain=-2,2;-2,2", "--resolution", "5",
                     "--set", "witness_max_pairs=0", "--out", str(tmp_path / "basins"))
    assert code == 0
    tolerances = read_json(tmp_path / "basins" / "basins.json")["params"]["match_tolerances"]
    want = {m["label"]: max(catalog["tol_cluster"], 5.0 * m["resolution"])
            for m in catalog["members"]}
    assert tolerances == want
    assert any(tol > catalog["tol_cluster"] for tol in want.values())


def test_simulate_honours_r_div(tmp_path, capsys):
    argv = ["simulate", "--system", "scalar-linear", "--param", "a=2", "--x0", "1",
            "--steps", "100"]
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "default"))
    assert code == 0 and "steps=40 termination=diverged" in out     # 2**40 > 1e12
    code, out, _ = run(capsys, *argv, "--set", "r_div=10", "--out", str(tmp_path / "ten"))
    assert code == 0 and "steps=4 termination=diverged last=16.0" in out
    lines = (tmp_path / "ten" / "trajectory.csv").read_text().splitlines()
    assert lines[-2:] == ["4,16.0", "# termination=diverged"]


@pytest.mark.parametrize("setting", ["basin_burn=-3", "basin_window=0", "escape_radius=0",
                                     "escape_radius=-1", "escape_radius=nan",
                                     "escape_radius=inf"])
def test_impossible_basin_settings_are_usage_errors(tmp_path, capsys, setting):
    message = _rejected_setting(tmp_path, capsys, "basins", setting)
    assert setting.split("=")[0] in message


def test_witness_settings_reach_the_witness_search(tmp_path, capsys):
    argv = ["basins", "--system", "rotation-scaling", "--domain=-2,2;-2,2",
            "--resolution", "21"]
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "default"))
    assert code == 0
    assert len(read_json(tmp_path / "default" / "basins.json")["witnesses"]) == 1
    code, out, _ = run(capsys, *argv, "--set", "witness_max_pairs=0",
                       "--out", str(tmp_path / "none"))
    assert code == 0 and "witness:" not in out
    assert read_json(tmp_path / "none" / "basins.json")["witnesses"] == []
    code, _, err = run(capsys, *argv, "--set", "witness_depth=0",
                       "--out", str(tmp_path / "bad"))
    assert code == 2 and stderr_payload(err)["error"] == "usage"


def test_demo_produces_the_full_artifact_set(tmp_path, capsys):
    code, out, err = run(capsys, "demo", "--seed", "42", "--out", str(tmp_path))
    assert code == 0 and err == ""
    expected = [
        "cot-consistency.json", "cot-verify.json", "demo-summary.json",
        "mobius-basins.csv", "mobius-basins.json", "mobius-catalog.json",
        "mobius-sweep.csv", "mobius-sweep.json", "mobius-verify.json",
        "rotation-catalog.json", "rotation-pushforward.json",
        "rotation-spectral.json",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for path in tmp_path.glob("*.json"):
        doc = read_json(path)
        validate(doc, doc["kind"])
    summary = read_json(tmp_path / "demo-summary.json")
    assert [ex["status"] for ex in summary["examples"]] == ["ok"] * 4
    assert out.count("[") == 4 and "wrote" in out
    assert_report_renders_each_artifact(capsys, tmp_path)


def test_demo_builds_each_catalog_once(tmp_path, capsys, monkeypatch):
    # the mobius catalog serves both the basin and the sweep example; the demo
    # looks the builder up in limits
    from limitlab import limits
    built, real = [], limits.catalog_from_seeds

    def count(system, *args, **kwargs):
        built.append(system.name)
        return real(system, *args, **kwargs)

    monkeypatch.setattr(limits, "catalog_from_seeds", count)
    code, _, _ = run(capsys, "demo", "--seed", "42", "--out", str(tmp_path))
    assert code == 0 and sorted(built) == ["mobius", "rotation-scaling(theta=1)"]
