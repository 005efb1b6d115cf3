import json
from pathlib import Path

import numpy as np
import pytest

from keflow.manifest import (SCHEMA_VERSION, RunManifest, dump_json,
                             jsonable, sha256_of)


def test_jsonable_handles_numpy_scalars_and_arrays():
    doc = jsonable({
        "a": np.float64(1.5),
        "b": np.int32(7),
        "c": np.bool_(True),
        "d": np.arange(3),
        "e": (1, 2),
        "p": Path("/tmp/x"),
        "nested": {"f": [np.float32(0.25)]},
    })
    assert doc == {"a": 1.5, "b": 7, "c": True, "d": [0, 1, 2],
                   "e": [1, 2], "p": "/tmp/x", "nested": {"f": [0.25]}}
    json.dumps(doc)  # round trips without custom encoders


def test_dump_json_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    dump_json({"z": 1, "a": [2, 3]}, p1)
    dump_json({"a": [2, 3], "z": 1}, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert sha256_of(p1) == sha256_of(p2)
    assert p1.read_text().endswith("\n")


def make_manifest(out_dir):
    mf = RunManifest(subcommand="demo", parameters={"n": 5},
                     tolerances={"tol": 1e-8})
    mf.write_json({"value": 1.0}, out_dir / "report.json")
    mf.write_text("t,a\n0,1\n", out_dir / "table.csv")
    return mf


def test_manifest_round_trip(tmp_path):
    mf = make_manifest(tmp_path)
    path = mf.save(tmp_path)
    assert path == tmp_path / "manifest.json"
    back = RunManifest.load(path)
    assert back.subcommand == "demo"
    assert back.parameters == {"n": 5}
    assert back.checksums == mf.checksums
    assert sorted(back.outputs) == ["report.json", "table.csv"]


def test_manifest_lists_a_path_recorded_twice_once(tmp_path):
    mf = make_manifest(tmp_path)
    mf.write_json({"value": 2.0}, tmp_path / "report.json")
    assert mf.to_dict()["outputs"] == ["report.json", "table.csv"]
    assert mf.checksums["report.json"] == sha256_of(tmp_path / "report.json")


@pytest.mark.parametrize("outputs", [
    ["report.json"],
    ["report.json", "report.json", "table.csv"],
    ["report.json", "table.csv", "extra.csv"],
])
def test_manifest_refuses_outputs_other_than_its_checksums(tmp_path,
                                                          outputs):
    doc = make_manifest(tmp_path).to_dict()
    with pytest.raises(ValueError, match="outputs"):
        RunManifest.from_dict({**doc, "outputs": outputs})


def test_manifest_header_excludes_checksums(tmp_path):
    mf = make_manifest(tmp_path)
    head = mf.header()
    assert "checksums" not in head
    assert "outputs" not in head
    assert head["schema"] == SCHEMA_VERSION
    assert set(head) == {"schema", "subcommand", "parameters", "tolerances"}


def test_manifest_checksums_match_files(tmp_path):
    mf = make_manifest(tmp_path)
    mf.save(tmp_path)
    for name, digest in mf.checksums.items():
        assert sha256_of(tmp_path / name) == digest


def test_manifest_rejects_unknown_schema(tmp_path):
    mf = make_manifest(tmp_path)
    doc = mf.to_dict()
    doc["schema"] = SCHEMA_VERSION + 1
    with pytest.raises(ValueError):
        RunManifest.from_dict(doc)


def test_manifest_identical_runs_identical_bytes(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(), d2.mkdir()
    make_manifest(d1).save(d1)
    make_manifest(d2).save(d2)
    assert (d1 / "manifest.json").read_bytes() == \
        (d2 / "manifest.json").read_bytes()
