"""YAML-subset parser tests (the emitter is the tests' own helper)."""

import math

import pytest
from hypothesis import given, strategies as st

from tests.util.yaml_dump import dumps

from repro.util.yamlish import YamlError, loads


class TestScalars:
    def test_types(self):
        doc = loads(
            "a: 1\n"
            "b: 2.5\n"
            "c: true\n"
            "d: false\n"
            "e: null\n"
            "f: hello\n"
            'g: "quoted: string"\n'
            "h: 'single # not comment'\n"
        )
        assert doc == {
            "a": 1,
            "b": 2.5,
            "c": True,
            "d": False,
            "e": None,
            "f": "hello",
            "g": "quoted: string",
            "h": "single # not comment",
        }

    def test_special_floats(self):
        doc = loads("a: .inf\nb: -.inf\nc: .nan\n")
        assert doc["a"] == math.inf
        assert doc["b"] == -math.inf
        assert math.isnan(doc["c"])

    def test_empty_value_is_none(self):
        assert loads("key:\n") == {"key": None}

    def test_empty_doc(self):
        assert loads("") is None
        assert loads("# only a comment\n") is None


class TestStructures:
    def test_nested_mapping(self):
        doc = loads(
            "download:\n"
            "  workers: 3\n"
            "  products:\n"
            "    - MOD021KM\n"
            "    - MOD03\n"
            "    - MOD06_L2\n"
            "preprocess:\n"
            "  workers: 32\n"
        )
        assert doc["download"]["workers"] == 3
        assert doc["download"]["products"] == ["MOD021KM", "MOD03", "MOD06_L2"]
        assert doc["preprocess"]["workers"] == 32

    def test_sequence_of_mappings(self):
        doc = loads(
            "endpoints:\n"
            "  - name: defiant\n"
            "    nodes: 36\n"
            "  - name: frontier\n"
            "    nodes: 9408\n"
        )
        assert doc["endpoints"] == [
            {"name": "defiant", "nodes": 36},
            {"name": "frontier", "nodes": 9408},
        ]

    def test_flow_collections(self):
        doc = loads("bands: [1, 2, 3, 6, 7, 20]\nmeta: {product: MOD02, day: 1}\n")
        assert doc["bands"] == [1, 2, 3, 6, 7, 20]
        assert doc["meta"] == {"product": "MOD02", "day": 1}

    def test_nested_flow(self):
        doc = loads("grid: [[1, 2], [3, 4]]\n")
        assert doc["grid"] == [[1, 2], [3, 4]]

    def test_comments_and_blanks(self):
        doc = loads("# header\n\na: 1  # trailing\n\nb: 2\n")
        assert doc == {"a": 1, "b": 2}

    def test_top_level_sequence(self):
        assert loads("- 1\n- 2\n") == [1, 2]

    def test_deep_nesting(self):
        doc = loads("a:\n  b:\n    c:\n      d: leaf\n")
        assert doc == {"a": {"b": {"c": {"d": "leaf"}}}}

    def test_document_marker(self):
        assert loads("---\na: 1\n") == {"a": 1}


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "a: 1\n\tb: 2\n",          # tab indentation
            "a: &anchor 1\n",           # anchor
            "a: *ref\n",                # alias
            "a: |\n  block\n",          # block scalar
            "a: [1, 2\n",               # unterminated flow
            "a: 1\na: 2\n",             # duplicate key
            "just a scalar line\nanother\n",  # not key: value
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(YamlError):
            loads(text)

    def test_error_carries_line(self):
        with pytest.raises(YamlError) as info:
            loads("ok: 1\nbad line\n")
        assert "line 2" in str(info.value)


class TestDumps:
    def test_roundtrip_nested(self):
        doc = {
            "name": "eo-ml",
            "workers": {"download": 3, "preprocess": 32, "inference": 1},
            "products": ["MOD021KM", "MOD03", "MOD06_L2"],
            "threshold": 0.3,
            "enabled": True,
            "note": None,
            "weird": "needs: quoting # really",
            "empty_list": [],
            "empty_map": {},
        }
        assert loads(dumps(doc)) == doc

    def test_roundtrip_list_of_maps(self):
        doc = [{"a": 1, "b": [1, 2]}, {"c": {"d": "x"}}]
        assert loads(dumps(doc)) == doc


_scalars = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.booleans(),
    st.none(),
    st.text(
        alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="_- ."),
        min_size=1,
        max_size=20,
    ),
)

_keys = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="_-"),
    min_size=1,
    max_size=12,
)

_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=12,
)


@given(_documents.filter(lambda d: isinstance(d, (dict, list))))
def test_dumps_loads_roundtrip_property(doc):
    assert loads(dumps(doc)) == doc
