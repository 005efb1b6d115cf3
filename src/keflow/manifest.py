"""Run manifests: reproducible records of CLI invocations.

Every CLI run writes a manifest.json capturing the subcommand, the full
parameter set after defaults, the tolerances in force, and the output
artifacts with their sha256 checksums. Re-running with the manifest's
parameters must reproduce the artifacts bit for bit, so all JSON here is
dumped with sorted keys and no locale- or time-dependent fields.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


def jsonable(value):
    """Recursively convert numpy scalars/arrays, paths and tuples for json."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, Path):
        return str(value)
    return value


def dump_json(doc: dict, path: Path) -> None:
    """Write a dict as deterministic JSON (sorted keys, fixed separators)."""
    path = Path(path)
    text = json.dumps(jsonable(doc), sort_keys=True, indent=1)
    path.write_text(text + "\n")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """What was run, with what, and what came out."""

    subcommand: str
    parameters: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    checksums: dict = field(default_factory=dict)

    @property
    def outputs(self) -> list:
        """The artifacts' names, each once: the keys of checksums."""
        return sorted(self.checksums)

    def header(self) -> dict:
        """The invocation record alone, for embedding inside artifacts.

        Checksums are omitted: an artifact cannot contain its own hash.
        """
        return {"schema": SCHEMA_VERSION,
                "subcommand": self.subcommand,
                "parameters": jsonable(self.parameters),
                "tolerances": jsonable(self.tolerances)}

    def record(self, path: Path) -> None:
        """Checksum an artifact that has already been written."""
        self.checksums[Path(path).name] = sha256_of(path)

    def write_json(self, doc: dict, path: Path) -> None:
        dump_json(doc, path)
        self.record(path)

    def write_text(self, text: str, path: Path) -> None:
        Path(path).write_text(text)
        self.record(path)

    def to_dict(self) -> dict:
        doc = self.header()
        doc["outputs"] = self.outputs
        doc["checksums"] = dict(sorted(self.checksums.items()))
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunManifest":
        if doc.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported manifest schema {doc.get('schema')!r}")
        checksums = dict(doc.get("checksums", {}))
        if sorted(doc.get("outputs", [])) != sorted(checksums):
            raise ValueError("outputs must name each checksummed file once")
        return cls(doc["subcommand"], doc.get("parameters", {}),
                   doc.get("tolerances", {}), checksums)

    def save(self, out_dir: Path) -> Path:
        path = Path(out_dir) / "manifest.json"
        dump_json(self.to_dict(), path)
        return path

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))
