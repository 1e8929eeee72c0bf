"""MRSL model persistence: learn once, serve many sessions.

The paper frames MRSL learning as an off-line process ("learning the MRSL
from the data as part of an off-line process is feasible", Section VI-B);
production use therefore needs to store the learned model.  The format is
plain JSON — schema, then per-attribute meta-rules as
``(body, weight, probs)`` triples — versioned for forward compatibility.

Saved documents also carry *compiled-engine metadata* (per-attribute CPD
group signatures, matrix shapes, and content digests) next to the model
itself, so any consumer that recompiles the model — most importantly a
:class:`~repro.exec.executors.ProcessExecutor` worker rebuilding from JSON —
can validate that its compiled structures match the ones the producer had.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..relational.schema import Attribute, Schema
from .metarule import MetaRule
from .mrsl import MRSL, MRSLModel

__all__ = [
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
    "compiled_metadata",
    "verify_compiled_metadata",
]

FORMAT_VERSION = 1

COMPILED_METADATA_VERSION = 1


def model_to_dict(model: MRSLModel) -> dict[str, Any]:
    """Serialize a model (schema + meta-rules) to plain JSON-able data."""
    return {
        "format": "repro-mrsl",
        "version": FORMAT_VERSION,
        "schema": [
            {"name": attr.name, "domain": list(attr.domain)}
            for attr in model.schema
        ],
        "lattices": [
            {
                "head": lattice.head_attribute,
                "meta_rules": [
                    {
                        "body": [list(item) for item in m.body],
                        "weight": m.weight,
                        "probs": [float(p) for p in m.probs],
                    }
                    for m in lattice
                ],
            }
            for lattice in model
        ],
    }


def model_from_dict(data: dict[str, Any]) -> MRSLModel:
    """Rebuild a model from :func:`model_to_dict` output."""
    if data.get("format") != "repro-mrsl":
        raise ValueError("not a repro MRSL model document")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {data.get('version')!r}"
        )
    schema = Schema(
        Attribute(entry["name"], entry["domain"]) for entry in data["schema"]
    )
    lattices = []
    for lat in data["lattices"]:
        head = int(lat["head"])
        meta_rules = [
            MetaRule(
                head_attribute=head,
                body=tuple((int(a), int(v)) for a, v in m["body"]),
                weight=float(m["weight"]),
                probs=np.asarray(m["probs"], dtype=np.float64),
            )
            for m in lat["meta_rules"]
        ]
        lattices.append(MRSL(head, meta_rules))
    return MRSLModel(schema, lattices)


def compiled_metadata(model: MRSLModel) -> dict[str, Any]:
    """Fingerprint the compiled form of every per-attribute semi-lattice.

    For each attribute: rule count, maximum body size, stacked CPD matrix
    shape, the evidence-signature attribute set, and a content digest over
    the canonical rule order (bodies, CPD bytes, weight bytes).  Two models
    with equal metadata compile to bit-identical
    :class:`~repro.core.compiled.CompiledMRSL` structures — the handshake
    :class:`~repro.exec.executors.ProcessExecutor` workers use to prove they
    rebuilt the parent's model.

    It reads the model's own compiled lattices (:attr:`MRSLModel.compiled
    <repro.core.mrsl.MRSLModel.compiled>`), which every engine over the
    model shares.  Each lattice hashes itself once (:meth:`CompiledMRSL.digest
    <repro.core.compiled.CompiledMRSL.digest>`), so a later fingerprint of
    the same model, and workers forked after it, compare the kept digests,
    while workers that rebuild the model hash their own.
    """
    compiled = model.compiled
    attributes = []
    for lattice in model:
        attr = lattice.head_attribute
        c = compiled[attr]
        attributes.append(
            {
                "attribute": model.schema[attr].name,
                "rules": len(c),
                "max_body": int(c.body_sizes.max()) if len(c) else 0,
                "cpd_shape": [int(d) for d in c.cpds.shape],
                "signature_attrs": [int(a) for a in c.signature_attrs],
                "digest": c.digest(),
            }
        )
    return {"version": COMPILED_METADATA_VERSION, "attributes": attributes}


def verify_compiled_metadata(
    model: MRSLModel, expected: Mapping[str, Any]
) -> None:
    """Raise :class:`ValueError` unless ``model`` compiles to ``expected``.

    Used by process-pool workers after rebuilding a model from JSON, and by
    :func:`load_model` when the saved document carries metadata.
    """
    if expected.get("version") != COMPILED_METADATA_VERSION:
        raise ValueError(
            "unsupported compiled metadata version "
            f"{expected.get('version')!r}"
        )
    actual = compiled_metadata(model)
    for mine, theirs in zip(actual["attributes"], expected["attributes"]):
        if mine != theirs:
            raise ValueError(
                f"compiled model mismatch on attribute "
                f"{theirs.get('attribute')!r}: rebuilt {mine}, "
                f"expected {theirs}"
            )
    if len(actual["attributes"]) != len(expected["attributes"]):
        raise ValueError(
            f"compiled model has {len(actual['attributes'])} attributes, "
            f"expected {len(expected['attributes'])}"
        )


def save_model(
    model: MRSLModel, path: str | Path, include_compiled: bool = True
) -> None:
    """Write the model as JSON, with compiled metadata alongside by default."""
    doc = model_to_dict(model)
    if include_compiled:
        doc["compiled"] = compiled_metadata(model)
    path = Path(path)
    path.write_text(json.dumps(doc))


def load_model(path: str | Path) -> MRSLModel:
    """Read a model previously written by :func:`save_model`.

    When the document carries compiled metadata, the freshly rebuilt model
    is validated against it, so a corrupted or hand-edited file fails
    loudly instead of serving silently different CPDs.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    model = model_from_dict(doc)
    if "compiled" in doc:
        verify_compiled_metadata(model, doc["compiled"])
    return model
