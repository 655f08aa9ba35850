"""JSON interchange for magmas and N-structures.

Magma document: {"kind", "order", "labels", "table", "identity",
"neutro_mask", "neutro_identity"} with 0-based table indices.
NStructure document: {"name", "components", "declared_kinds"}.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .magma import FiniteMagma, ParameterError
from .nstruct import NStructure


def magma_to_dict(m: FiniteMagma) -> dict:
    return {
        "kind": m.kind_tag,
        "order": m.order,
        "labels": list(m.labels),
        "table": [list(row) for row in m.table],
        "identity": m.identity,
        "neutro_mask": list(m.neutro_mask),
        "neutro_identity": m.neutro_identity,
    }


@contextmanager
def _malformed(what: str):
    """Report a document of the wrong shape or syntax as a ParameterError."""
    try:
        yield
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise ParameterError(f"malformed {what} document: {exc!r}") from exc


def magma_from_dict(doc: dict) -> FiniteMagma:
    """The magma of a document; an "identity" other than a missing key or
    null must be the identity found from the table."""
    try:
        table = doc["table"]
        order = doc.get("order", len(table))
    except (KeyError, TypeError):
        raise ParameterError("magma document needs a 'table' field")
    if order != len(table):
        raise ParameterError("declared order does not match the table")
    with _malformed("magma"):
        m = FiniteMagma(
            table,
            labels=doc.get("labels"),
            neutro_mask=doc.get("neutro_mask"),
            neutro_identity=doc.get("neutro_identity"),
            kind_tag=doc.get("kind", ""),
        )
    declared = doc.get("identity")
    if declared is not None and (type(declared) is not int or declared != m.identity):
        raise ParameterError(
            f"declared identity {declared!r} is not the identity of the table ({m.identity})")
    return m


def nstructure_to_dict(ns: NStructure) -> dict:
    return {
        "name": ns.name,
        "components": [magma_to_dict(c) for c in ns.components],
        "declared_kinds": list(ns.declared_kinds),
    }


def nstructure_from_dict(doc: dict) -> NStructure:
    with _malformed("N-structure"):
        comps = [magma_from_dict(c) for c in doc["components"]]
        return NStructure(comps, doc["declared_kinds"], doc.get("name", ""))


def save_magma(m: FiniteMagma, path):
    with open(path, "w") as fh:
        json.dump(magma_to_dict(m), fh, indent=1)
        fh.write("\n")


def load_magma(path) -> FiniteMagma:
    with open(path) as fh, _malformed("magma"):
        return magma_from_dict(json.load(fh))


def save_nstructure(ns: NStructure, path):
    with open(path, "w") as fh:
        json.dump(nstructure_to_dict(ns), fh, indent=1)
        fh.write("\n")


def load_nstructure(path) -> NStructure:
    with open(path) as fh, _malformed("N-structure"):
        return nstructure_from_dict(json.load(fh))
