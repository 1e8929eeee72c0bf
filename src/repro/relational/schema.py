"""Relation schemas over discrete, finite-valued attributes.

The paper (Section II, "Database") assumes a single relation whose attributes
are discrete and finite-valued; continuous attributes are bucketed into
sub-ranges first (see :mod:`repro.relational.bucketing`).  A
:class:`Schema` is an ordered collection of :class:`Attribute` objects and is
shared by every tuple, relation, meta-rule and sampler in the library.

Values are arbitrary hashable Python objects (strings, ints, ...).  For speed,
all internal algorithms work on small integer *codes*; the schema owns the
value <-> code mapping for each attribute.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Sequence

__all__ = ["Attribute", "Schema", "SchemaError"]


class SchemaError(ValueError):
    """Raised for malformed schemas or values outside an attribute domain."""


class Attribute:
    """A named attribute with a finite, ordered domain of discrete values.

    Parameters
    ----------
    name:
        Attribute name, unique within a schema.
    domain:
        Ordered collection of distinct values.  Order is preserved and defines
        the integer code of each value (``domain[i]`` has code ``i``).
    """

    __slots__ = ("name", "domain", "_codes")

    def __init__(self, name: str, domain: Sequence[Hashable]):
        if not name:
            raise SchemaError("attribute name must be non-empty")
        values = tuple(domain)
        if not values:
            raise SchemaError(f"attribute {name!r} has an empty domain")
        codes = {value: code for code, value in enumerate(values)}
        if len(codes) != len(values):
            raise SchemaError(f"attribute {name!r} has duplicate domain values")
        self.name = name
        self.domain = values
        self._codes = codes

    @property
    def cardinality(self) -> int:
        """Number of values in the domain."""
        return len(self.domain)

    def code(self, value: Hashable) -> int:
        """Return the integer code of ``value``.

        Raises :class:`SchemaError` if the value is not in the domain.
        """
        try:
            return self._codes[value]
        except KeyError:
            raise SchemaError(
                f"value {value!r} is not in the domain of attribute {self.name!r}"
            ) from None

    def value(self, code: int) -> Hashable:
        """Return the domain value with integer code ``code``."""
        try:
            return self.domain[code]
        except IndexError:
            raise SchemaError(
                f"code {code} is out of range for attribute {self.name!r} "
                f"(cardinality {self.cardinality})"
            ) from None

    def __contains__(self, value: Hashable) -> bool:
        return value in self._codes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Attribute):
            return NotImplemented
        return self.name == other.name and self.domain == other.domain

    def __hash__(self) -> int:
        return hash((self.name, self.domain))

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}, card={self.cardinality})"


class Schema:
    """An ordered, immutable collection of attributes.

    Supports lookup by name or position and exposes the cross-domain size
    used throughout the paper's evaluation ("dom. size" in Table I).
    """

    __slots__ = ("attributes", "_by_name", "_hash")

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("schema must contain at least one attribute")
        by_name = {attr.name: i for i, attr in enumerate(attrs)}
        if len(by_name) != len(attrs):
            raise SchemaError("schema has duplicate attribute names")
        self.attributes = attrs
        self._by_name = by_name
        # Every RelTuple hash includes its schema's, so compute it once.
        self._hash = hash(attrs)

    def __reduce__(self):
        # Rebuild through __init__ rather than restoring slots: the cached
        # ``_hash`` is salted per process (PYTHONHASHSEED), and schemas
        # reach spawned workers inside every shard.
        return (self.__class__, (self.attributes,))

    @classmethod
    def from_domains(cls, domains: Mapping[str, Sequence[Hashable]]) -> "Schema":
        """Build a schema from a ``{name: domain}`` mapping (insertion order)."""
        return cls(Attribute(name, domain) for name, domain in domains.items())

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __getitem__(self, key: int | str) -> Attribute:
        if isinstance(key, str):
            return self.attributes[self.index(key)]
        return self.attributes[key]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def index(self, name: str) -> int:
        """Return the position of the attribute called ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r} in schema") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(attr.name for attr in self.attributes)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(attr.cardinality for attr in self.attributes)

    def domain_size(self) -> int:
        """Size of the Cartesian product of all attribute domains.

        This is the "dom. size" column of Table I: the decisive scale
        parameter for multi-attribute inference.
        """
        size = 1
        for attr in self.attributes:
            size *= attr.cardinality
        return size

    def average_cardinality(self) -> float:
        """Mean attribute cardinality ("avg card" in Table I)."""
        return sum(self.cardinalities) / len(self.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.attributes == other.attributes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        names = ", ".join(self.names)
        return f"Schema([{names}])"
