"""Deterministic serialization and the bundled schema set."""

import json

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlab.serialize import (_CANONICAL, _coerce, dump, dumps, load_schema,
                                schema_names, validate, write_csv)

EXPECTED_SCHEMAS = [
    "basin-summary", "collapse-report", "conjugacy-report",
    "consistency-report", "demo-summary", "fit-report", "injectivity-report",
    "learned-lift", "limit-set-catalog", "pushforward-report",
    "spectral-split", "tradeoff-report", "verify-report",
]


def test_dumps_is_canonical():
    a = dumps({"b": 1, "a": [1.5, 2]})
    b = dumps({"a": [1.5, 2], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert json.loads(a) == {"a": [1.5, 2], "b": 1}


def test_dumps_coerces_numpy_types():
    doc = {"f": np.float64(0.1), "i": np.int32(7), "b": np.bool_(True),
           "arr": np.arange(3.0), "key": np.str_("k")}
    out = json.loads(dumps(doc))
    assert out == {"f": 0.1, "i": 7, "b": True, "arr": [0.0, 1.0, 2.0],
                   "key": "k"}
    assert isinstance(out["f"], float) and isinstance(out["i"], int)


_FLOATS = [np.float16(0.1), np.float32(0.1), np.float64(0.1), np.float32(-3.0e38)]
_INTS = ([t(v) for t in (np.int8, np.int16, np.int32, np.int64) for v in (-7, 0, 99)]
         + [t(v) for t in (np.uint8, np.uint16, np.uint32, np.uint64) for v in (0, 200)]
         + [np.int64(-2**63), np.uint64(2**64 - 1)])


@pytest.mark.parametrize("value,expected", [(v, float(v)) for v in _FLOATS]
                         + [(v, int(v)) for v in _INTS]
                         + [(np.bool_(True), True), (np.bool_(False), False)],
                         ids=lambda v: repr(v))
def test_coerce_gives_numpy_scalars_their_python_value_and_type(value, expected):
    got = _coerce(value)
    assert type(got) is type(expected) and got == expected
    assert dumps({"v": value}) == dumps({"v": expected})


@pytest.mark.parametrize("array,expected", [
    (np.array(0.1, dtype=np.float32), float(np.float32(0.1))),
    (np.array(7, dtype=np.int16), 7),
    (np.arange(3, dtype=np.uint8), [0, 1, 2]),
    (np.array([True, False]), [True, False]),
    (np.array([[0.5, np.float32(0.1)], [-0.0, 2.0]], dtype=np.float32),
     [[0.5, float(np.float32(0.1))], [-0.0, 2.0]]),
    (np.arange(4.0).reshape(2, 2), [[0.0, 1.0], [2.0, 3.0]])], ids=repr)
def test_coerce_gives_arrays_nested_python_lists(array, expected):
    def types(obj):
        return [types(v) for v in obj] if isinstance(obj, list) else type(obj)

    got = _coerce(array)
    assert got == expected and types(got) == types(expected)
    assert dumps({"a": array}) == dumps({"a": expected})


def test_coerce_gives_a_numpy_string_its_python_type_and_the_same_text():
    got = _coerce({"s": np.str_("k")})["s"]
    assert type(got) is str and got == "k"
    assert dumps({"s": np.str_("k")}) == dumps({"s": "k"})


def test_dumps_floats_round_trip():
    x = 0.1 + 0.2
    assert json.loads(dumps({"x": x}))["x"] == x


def test_dumps_refuses_nan():
    with pytest.raises(ValueError):
        dumps({"x": float("nan")})
    with pytest.raises(ValueError):
        dumps({"x": np.inf})


# -- the writer against json.dumps --------------------------------------------------

_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
                1.7976931348623157e308, 1e16, 1e-7, 0.1, -2.5]
_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_numbers = _floats | st.integers()
_text = st.text(alphabet=st.characters() | st.sampled_from('"[],:\\'), max_size=6)
_scalars = st.none() | st.booleans() | _numbers | _text
_lists = (st.lists(_floats, max_size=6) | st.lists(st.integers(), max_size=6)
          | st.lists(_text, max_size=4) | st.lists(_scalars, max_size=6))
# rows of numbers, the C encoder's path, and rows it must refuse: empty
# rows, bools, strings, None, nested rows and scalars among the rows
_rows = (st.lists(st.lists(_numbers, min_size=1, max_size=4), min_size=1, max_size=6)
         | st.lists(st.lists(_numbers | _text, min_size=1, max_size=3), min_size=1, max_size=4)
         | st.lists(st.lists(_scalars, max_size=4), max_size=5)
         | st.lists(st.lists(st.lists(_numbers, max_size=3), max_size=3), max_size=3)
         | st.lists(st.lists(_numbers, max_size=3) | _numbers, max_size=5))
_documents = st.recursive(
    _scalars | _lists | _rows,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_text, _documents, max_size=5))
def test_the_writer_writes_the_bytes_of_json_dumps(doc):
    assert dumps(doc) == json.dumps(doc, **_CANONICAL)


def test_the_writer_writes_every_report_the_demo_writes_as_json_dumps(tmp_path):
    from limitlab.cli import main

    assert main(["demo", "--seed", "42", "--out", str(tmp_path)]) == 0
    paths = sorted(tmp_path.glob("*.json"))
    kinds = set()
    for path in paths:
        text = path.read_text()
        doc = json.loads(text)
        kinds.add(doc["kind"])
        assert text == json.dumps(doc, **_CANONICAL) + "\n" == dumps(doc) + "\n", path.name
    assert len(paths) == 10 and len(kinds) == 8


def test_the_writer_writes_a_negation_catalog_as_json_dumps():
    # limits-seeds' negation job: 48 period-2 members of 128 one-coordinate
    # points, most of the bytes that workload writes
    import limitlab as L

    rng = np.random.default_rng(0)
    seeds = (0.05 + 0.02 * np.arange(48) + rng.uniform(0.0, 0.005, 48)) * rng.choice([-1, 1], 48)
    catalog, skipped = L.catalog_from_seeds(L.get_system("negation"), seeds[:, None])
    doc = L.catalog_to_dict(catalog)
    assert skipped == [] and len(doc["members"]) == 48
    assert dumps(doc) == json.dumps(doc, **_CANONICAL)


@pytest.mark.parametrize("bad", [float("nan"), np.inf, -np.inf])
@pytest.mark.parametrize("where", [
    lambda v: {"representative_points": [[0.5], [v], [-0.5]]},
    lambda v: {"representative_points": [[0.5, 1.0], [2.0, v]]},
    lambda v: {"members": [{"diameter": 1.0, "first_seed": [0.25, v]}]},
    lambda v: {"rows": [{"x": v}]}], ids=["rows", "pairs", "scalars", "nested"])
def test_the_writer_refuses_a_non_finite_float_at_any_depth(tmp_path, bad, where):
    p = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        dumps(where(bad))
    with pytest.raises(ValueError, match="not JSON compliant"):
        dump(where(bad), p)
    assert not p.exists()


def _plain(obj) -> bool:
    """Whether ``obj`` holds only the types ``json.loads`` returns."""
    if type(obj) is dict:
        return all(type(k) is str and _plain(v) for k, v in obj.items())
    if type(obj) is list:
        return all(_plain(v) for v in obj)
    return type(obj) in (str, int, float, bool, type(None))


def test_dump_returns_the_document_it_wrote(tmp_path):
    p = tmp_path / "doc.json"
    doc = _coerce({"f": np.float64(0.1), "i": np.int64(7), "b": np.bool_(True),
                   "arr": np.arange(3.0), "t": (1, np.float64(2.5))})
    got = dump(doc, p)
    assert got is doc
    assert got == json.loads(p.read_text())
    assert got == {"f": 0.1, "i": 7, "b": True, "arr": [0.0, 1.0, 2.0], "t": [1, 2.5]}
    assert _plain(got)


@pytest.mark.parametrize("raw", [np.arange(3.0), [np.arange(3.0)], {"k": np.zeros((2, 2))}])
def test_dump_refuses_a_document_its_builder_did_not_coerce(tmp_path, raw):
    p = tmp_path / "doc.json"
    with pytest.raises(TypeError, match="ndarray"):
        dump({"a": raw}, p)
    assert not p.exists()


def test_dump_ends_with_newline(tmp_path):
    p = tmp_path / "doc.json"
    dump({"a": 1}, p)
    text = p.read_text()
    assert text.endswith("}\n")
    assert not text.endswith("\n\n")


def test_write_csv_formats(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b", "c"], [[1, 0.5, None], [np.int64(2), np.float64(0.1), "x"]])
    assert p.read_text() == "a,b,c\n1,0.5,\n2,0.1,x\n"


def test_schema_inventory():
    assert schema_names() == EXPECTED_SCHEMAS


def test_load_schema_unknown_name():
    with pytest.raises(KeyError):
        load_schema("nonexistent")


@pytest.mark.parametrize("name", EXPECTED_SCHEMAS)
def test_schemas_are_themselves_valid(name):
    schema = load_schema(name)
    jsonschema.Draft202012Validator.check_schema(schema)
    assert schema.get("type") == "object"
    assert "schema_version" in schema.get("properties", {})


def test_validate_rejects_malformed_documents():
    with pytest.raises(jsonschema.ValidationError):
        validate({"schema_version": 1, "kind": "fit-report"}, "fit-report")
    with pytest.raises(jsonschema.ValidationError):
        validate({"schema_version": 1, "kind": "wrong", "rms_residual": 0.0,
                  "max_residual": 0.0, "gram_condition": 1.0,
                  "samples_used": 4, "ridge": 0.0,
                  "method": "normal-equations"}, "fit-report")


def test_live_reports_of_every_kind_validate(cot_catalog, tmp_path):
    # each builder returns plain values: its own JSON round trip, with no
    # numpy type left for the encoder to convert
    import dataclasses

    import limitlab as L
    from limitlab import config, runs
    from limitlab.catalog import rotation_block

    f = L.get_system("cot-map")
    ent = L.exact_immersion("cot-map", 0)
    samples = f.domain.sample(100, np.random.default_rng(0))
    lift = L.fit_lift(f, L.build_dictionary("fourier", 1, 1), seed=0)
    sweep = L.obstruction_sweep(f, cot_catalog, specs=[("fourier", 0)], seed=0)
    mobius = L.get_system("mobius")
    mobius_catalog, _ = L.catalog_from_seeds(mobius, L.default_seeds("mobius"))
    region = L.DomainRegion.interval(-2.0, 2.0)
    docs = [
        ("conjugacy-report",
         L.conjugacy_residual(ent.immersion, f, ent.target, samples).to_dict()),
        ("pushforward-report",
         L.pushforward_check(ent.immersion, f, ent.target, [1.0]).to_dict()),
        ("collapse-report", L.collapse_report(ent.immersion, cot_catalog, seed=0).to_dict()),
        ("injectivity-report", L.injectivity_probe(ent.immersion, samples).to_dict()),
        ("consistency-report", L.omega_alpha_consistency(f, [2.0]).to_dict()),
        ("limit-set-catalog", L.catalog_to_dict(cot_catalog)),
        ("fit-report", lift.report.to_dict()),
        ("learned-lift", runs.learned_lift(f, lift.dictionary, lift)),
        ("tradeoff-report", sweep.to_dict()),
        ("spectral-split", L.spectral_split_to_dict(L.spectral_split(np.diag([0.5, 1.0, 2.0])))),
        ("spectral-split", L.spectral_split_to_dict(L.spectral_split(rotation_block(1.0)))),
        ("basin-summary", runs.basins_step(mobius, mobius_catalog, region, 21, 1,
                                           L.Settings(), tmp_path, "basins")[0]),
        ("verify-report", runs.verify_step(
            mobius, L.exact_immersion("mobius"), runs.survey_samples(region, 0), [0.0],
            0, L.Settings(), config.VERIFY_TOL, tmp_path / "verify.json")[0]),
    ]
    for kind, doc in docs:
        validate(doc, kind)
        assert doc == json.loads(dumps(doc)), kind
        assert _plain(doc), kind
    assert [row.to_dict() for row in sweep.rows] == sweep.to_dict()["rows"]

    # a value given as an integer is written as the float it stands for
    one = L.injectivity_probe(ent.immersion, samples, delta_sep=1, delta_img=1).to_dict()
    assert '"delta_sep": 1.0' in dumps(one) and '"delta_img": 1.0' in dumps(one)
    by_hand = dataclasses.replace(cot_catalog, tol_cluster=1, gap_factor=2)
    assert '"tol_cluster": 1.0' in dumps(L.catalog_to_dict(by_hand))
    assert '"gap_factor": 2.0' in dumps(L.catalog_to_dict(by_hand))


def test_validate_checks_each_nested_report_against_its_kind(tmp_path):
    # verify-report and learned-lift typed their parts as bare objects, so a
    # part missing a required field passed
    import limitlab as L
    from limitlab import config, runs

    f = L.get_system("cot-map")
    samples = f.domain.sample(50, np.random.default_rng(0))
    report = runs.verify_step(f, L.exact_immersion("cot-map", 0), samples, None, 0,
                              L.Settings(), config.VERIFY_TOL, tmp_path / "verify.json")[0]
    validate(report, "verify-report")
    conj = {k: v for k, v in report["conjugacy"].items() if k != "max_residual"}
    with pytest.raises(jsonschema.ValidationError, match="max_residual"):
        validate(report | {"conjugacy": conj}, "verify-report")

    lift = L.fit_lift(f, L.build_dictionary("fourier", 1, 1), seed=0)
    doc = runs.learned_lift(f, lift.dictionary, lift)
    validate(doc, "learned-lift")
    with pytest.raises(jsonschema.ValidationError):
        validate(doc | {"fit": doc["fit"] | {"ridge": "none"}}, "learned-lift")
