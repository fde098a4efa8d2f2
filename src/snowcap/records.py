"""Experiment records: canonical ids, JSON-lines persistence, validation.

Each experiment emits one immutable record carrying the geometry family,
its similarity dimension, the degeneracy order, scalar outputs, and enough
provenance (seed, version, wall time) to reproduce the run. Records are
appended to a JSON-lines stream; sweeps use the id set for resumption.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field, fields

from .simsys import named_family, similarity_dimension, critical_delta

__all__ = ["ExperimentRecord", "record_id", "derive_seed", "append_record", "load_records",
           "load_ids"]

_VALIDATION_TOL = 1e-9
# JSON names of the record fields whose attribute names differ
_JSON_NAMES = {"lam": "lambda", "dim": "d"}
# the JSON values each field annotation admits; a bool is none of them
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "dict": dict}


@dataclass(frozen=True)
class ExperimentRecord:
    id: str
    op: str
    family: str
    lam: float
    depth: int | None
    dim: int
    s: float
    delta: float | None
    delta_c: float
    resolution: int | None
    outputs: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    wall_time: float = 0.0
    version: str = ""

    def to_json(self) -> str:
        payload = {_JSON_NAMES.get(f.name, f.name): getattr(self, f.name) for f in fields(self)}
        return json.dumps(payload, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, line: str) -> "ExperimentRecord":
        raw = _record_object(line)
        rec = cls(**{f.name: _field(raw, _JSON_NAMES.get(f.name, f.name), f.type)
                     for f in fields(cls)})
        s_check = similarity_dimension(named_family(rec.family).system(rec.lam, rec.dim))
        if abs(s_check - rec.s) > _VALIDATION_TOL:
            raise ValueError(f"record {rec.id}: stored s {rec.s} != recomputed {s_check}")
        dc_check = critical_delta(s_check, rec.dim)
        if abs(dc_check - rec.delta_c) > _VALIDATION_TOL:
            raise ValueError(
                f"record {rec.id}: stored delta_c {rec.delta_c} != recomputed {dc_check}"
            )
        if not rec.version:
            raise ValueError(f"record {rec.id}: missing version tag")
        return rec


def record_id(params: dict) -> str:
    """Stable 16-hex id from the canonical parameter serialization."""
    canon = json.dumps(params, sort_keys=True, allow_nan=False)
    return hashlib.sha1(canon.encode()).hexdigest()[:16]


def derive_seed(top_seed: int, rid: str) -> int:
    """Expand one top-level seed into a per-experiment 63-bit seed."""
    digest = hashlib.sha256(f"{top_seed}:{rid}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _record_object(line: str) -> dict:
    """The JSON object on a record line; a line that holds other JSON, such
    as a list or a number, is refused with a ValueError that names it."""
    raw = json.loads(line)
    if not isinstance(raw, dict):
        raise ValueError(f"record line is not a JSON object: {line[:80]!r}")
    return raw


def _field(raw: dict, name: str, annotation: str):
    """raw[name] if its JSON type fits the record field's annotation, such
    as "float" or "int | None"; otherwise a ValueError that names the field."""
    if name not in raw:
        raise ValueError(f"record field {name!r} is missing")
    value = raw[name]
    kind, _, rest = annotation.partition(" | ")
    if value is None and rest == "None":
        return value
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"record field {name!r} is not of type {annotation}: {value!r:.80}")
    return value


def _parses(line: str) -> bool:
    try:
        json.loads(line)
    except json.JSONDecodeError:
        return False
    return True


def append_record(path: str, rec: ExperimentRecord) -> None:
    """Append one record as a single write.

    A final line without its newline is a write cut short: it is truncated
    when it does not parse, and terminated when it does, so the new record
    starts on its own line. A record that is not JSON (a NaN or infinite
    output) raises ValueError before the stream is opened.
    """
    line = (rec.to_json() + "\n").encode("utf-8")
    with open(path, "a+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(max(size - 1, 0))
        if size and fh.read(1) != b"\n":
            fh.seek(0)
            data = fh.read()
            cut = data.rfind(b"\n") + 1
            if _parses(data[cut:].decode("utf-8", "replace")):
                fh.write(b"\n")
            else:
                fh.truncate(cut)
        fh.write(line)


def _stream_lines(path: str) -> list[str]:
    """Non-empty lines of a record stream.

    An unterminated final line that does not parse is a write cut short by a
    crash; it is skipped with a RuntimeWarning. A bad line anywhere else is
    left for the caller's parser to reject.
    """
    with open(path, encoding="utf-8") as fh:
        *lines, tail = fh.read().split("\n")
    lines = [ln for ln in lines if ln.strip()]
    if tail.strip():
        if _parses(tail):
            lines.append(tail)
        else:
            warnings.warn(f"{path}: skipping torn final record ({len(tail)} chars)", RuntimeWarning)
    return lines


def load_records(path: str) -> list[ExperimentRecord]:
    return [ExperimentRecord.from_json(line) for line in _stream_lines(path)]


def load_ids(path: str) -> set[str]:
    """Ids already present in a record stream; empty if the file is absent."""
    try:
        lines = _stream_lines(path)
    except FileNotFoundError:
        return set()
    return {_field(_record_object(line), "id", "str") for line in lines}
