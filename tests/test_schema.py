"""Unit tests for repro.relational.schema."""

import pytest

from repro.relational import Attribute, Schema, SchemaError


class TestAttribute:
    def test_basic_construction(self):
        attr = Attribute("age", ["20", "30", "40"])
        assert attr.name == "age"
        assert attr.cardinality == 3
        assert attr.domain == ("20", "30", "40")

    def test_code_and_value_roundtrip(self):
        attr = Attribute("edu", ["HS", "BS", "MS"])
        for i, value in enumerate(attr.domain):
            assert attr.code(value) == i
            assert attr.value(i) == value

    def test_domain_order_defines_codes(self):
        attr = Attribute("x", ["b", "a"])
        assert attr.code("b") == 0
        assert attr.code("a") == 1

    def test_contains(self):
        attr = Attribute("x", [1, 2, 3])
        assert 2 in attr
        assert 9 not in attr

    def test_unknown_value_raises(self):
        attr = Attribute("x", ["a"])
        with pytest.raises(SchemaError, match="not in the domain"):
            attr.code("zzz")

    def test_out_of_range_code_raises(self):
        attr = Attribute("x", ["a", "b"])
        with pytest.raises(SchemaError, match="out of range"):
            attr.value(5)

    def test_empty_domain_rejected(self):
        with pytest.raises(SchemaError, match="empty domain"):
            Attribute("x", [])

    def test_duplicate_domain_values_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Attribute("x", ["a", "a"])

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("", ["a"])

    def test_equality_and_hash(self):
        a1 = Attribute("x", ["a", "b"])
        a2 = Attribute("x", ["a", "b"])
        a3 = Attribute("x", ["b", "a"])
        assert a1 == a2
        assert hash(a1) == hash(a2)
        assert a1 != a3

    def test_integer_domain_values(self):
        attr = Attribute("count", [0, 1, 2])
        assert attr.code(2) == 2
        assert attr.value(0) == 0


class TestSchema:
    def test_from_domains_preserves_order(self):
        schema = Schema.from_domains({"a": [1], "b": [1, 2], "c": [1]})
        assert schema.names == ("a", "b", "c")

    def test_lookup_by_name_and_index(self, fig1_schema):
        assert fig1_schema["age"].name == "age"
        assert fig1_schema[0].name == "age"
        assert fig1_schema.index("nw") == 3

    def test_contains(self, fig1_schema):
        assert "edu" in fig1_schema
        assert "salary" not in fig1_schema

    def test_unknown_attribute_raises(self, fig1_schema):
        with pytest.raises(SchemaError, match="no attribute"):
            fig1_schema.index("zzz")

    def test_len_and_iter(self, fig1_schema):
        assert len(fig1_schema) == 4
        assert [a.name for a in fig1_schema] == ["age", "edu", "inc", "nw"]

    def test_cardinalities(self, fig1_schema):
        assert fig1_schema.cardinalities == (3, 3, 2, 2)

    def test_domain_size_is_cartesian_product(self, fig1_schema):
        assert fig1_schema.domain_size() == 3 * 3 * 2 * 2

    def test_average_cardinality(self, fig1_schema):
        assert fig1_schema.average_cardinality() == pytest.approx(2.5)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Attribute("x", [1]), Attribute("x", [2])])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_equality(self, fig1_schema):
        other = Schema.from_domains(
            {
                "age": ["20", "30", "40"],
                "edu": ["HS", "BS", "MS"],
                "inc": ["50K", "100K"],
                "nw": ["100K", "500K"],
            }
        )
        assert fig1_schema == other
        assert hash(fig1_schema) == hash(other)

    def test_pickle_recomputes_hash_across_processes(self, fig1_schema):
        # Schema caches its hash, which is salted per process
        # (PYTHONHASHSEED).  Schemas built in another interpreter (a spawned
        # worker) and pickled back must hash like local ones, or dict/set
        # lookups of schemas and of their tuples silently miss.
        import os
        import pickle
        import subprocess
        import sys

        from repro.relational import make_tuple

        script = (
            "import pickle, sys\n"
            "from repro.relational import Schema, make_tuple\n"
            "s = Schema.from_domains({'age': ['20', '30', '40'],"
            " 'edu': ['HS', 'BS', 'MS'], 'inc': ['50K', '100K'],"
            " 'nw': ['100K', '500K']})\n"
            "t = make_tuple(s, {'age': '20', 'edu': 'HS'})\n"
            "sys.stdout.buffer.write(pickle.dumps((s, t)))\n"
        )
        hashes = set()
        for seed in ("4242", "7"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                check=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            schema, t = pickle.loads(out.stdout)
            local = make_tuple(fig1_schema, {"age": "20", "edu": "HS"})
            assert schema == fig1_schema
            assert hash(schema) == hash(fig1_schema)
            assert schema in {fig1_schema}
            assert {fig1_schema: 1}[schema] == 1
            assert t == local and hash(t) == hash(local)
            assert {local: "hit"}[t] == "hit"
            hashes.add(pickle.loads(pickle.dumps(schema))._hash)
        assert hashes == {hash(fig1_schema)}
