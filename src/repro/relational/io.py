"""CSV import/export for relations.

Missing values are serialized as ``"?"`` exactly as in the paper's Figure 1.
Schemas can be supplied explicitly or inferred from the file (every distinct
non-missing string in a column becomes a domain value, sorted for
determinism).
"""

from __future__ import annotations

import csv
from pathlib import Path

from .relation import Relation
from .schema import Attribute, Schema, SchemaError
from .tuples import MISSING, RelTuple

__all__ = ["read_csv", "write_csv", "infer_schema"]


def infer_schema(path: str | Path, delimiter: str = ",") -> Schema:
    """Infer a schema from a headed CSV file.

    Each column becomes a discrete attribute whose domain is the sorted set
    of distinct non-``"?"`` strings appearing in that column.
    """
    path = Path(path)
    with path.open(newline="") as f:
        reader = csv.reader(f, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path} is empty; cannot infer a schema") from None
        domains: list[set[str]] = [set() for _ in header]
        for row in reader:
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}: row {reader.line_num} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            for col, value in enumerate(row):
                if value != MISSING:
                    domains[col].add(value)
    attributes = []
    for name, dom in zip(header, domains):
        if not dom:
            raise SchemaError(
                f"column {name!r} has no known values; cannot infer its domain"
            )
        attributes.append(Attribute(name, sorted(dom)))
    return Schema(attributes)


def read_csv(
    path: str | Path, schema: Schema | None = None, delimiter: str = ","
) -> Relation:
    """Read a headed CSV file into a :class:`Relation`.

    If ``schema`` is omitted it is inferred first (two passes over the file).
    The header must list exactly the schema's attribute names, in order.
    """
    path = Path(path)
    if schema is None:
        schema = infer_schema(path, delimiter=delimiter)
    with path.open(newline="") as f:
        reader = csv.reader(f, delimiter=delimiter)
        header = tuple(next(reader))
        if header != schema.names:
            raise SchemaError(
                f"{path}: header {header} does not match schema {schema.names}"
            )
        rows = [RelTuple.from_values(schema, row) for row in reader]
    return Relation(schema, rows)


def write_csv(relation: Relation, path: str | Path, delimiter: str = ",") -> None:
    """Write a relation to a headed CSV file, missing values as ``"?"``."""
    path = Path(path)
    with path.open("w", newline="") as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(relation.schema.names)
        for t in relation:
            writer.writerow(t.values())

