"""The compact JSON writer of the CLI, which writes a document in pieces.

``cli._write_json(doc, path, indent=None)`` opens iterators, and the dicts
that hold one, itself and encodes every other value in one call, so a
solver-sized document is never held whole, nor is its encoding.  The file it writes must equal the
one-shot ``json.JSONEncoder().encode`` of the document, with every iterator
encoded as the list it yields.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from ballmaps import cli

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    st.sampled_from([-0.0, 1e-300, 5e-324, 1.7976931348623157e308, 2.0**53 + 1]),
    st.text(max_size=8),
)
keys = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n\t", "é", "ключ", "\u2028", "\x00", ""]
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=40,
)


def _streamed(doc, draw_bool):
    """``doc`` with some of its lists replaced by generators, at any depth
    below dicts and generators (a list is encoded in one call, so nothing
    inside it may be a generator)."""
    if isinstance(doc, dict):
        return {key: _streamed(value, draw_bool) for key, value in doc.items()}
    if isinstance(doc, list) and draw_bool():
        items = [_streamed(value, draw_bool) for value in doc]
        return (item for item in items)
    return doc


_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_SETTINGS
@given(documents)
def test_pieces_equal_the_one_shot_encoding(tmp_path, doc):
    out = tmp_path / "doc.json"
    cli._write_json(doc, str(out), indent=None)
    assert out.read_text(encoding="utf-8") == json.JSONEncoder().encode(doc) + "\n"


@_SETTINGS
@given(documents, st.data())
def test_a_generator_is_written_as_the_list_it_yields(tmp_path, doc, data):
    out = tmp_path / "doc.json"
    cli._write_json(_streamed(doc, lambda: data.draw(st.booleans())), str(out), indent=None)
    assert out.read_text(encoding="utf-8") == json.JSONEncoder().encode(doc) + "\n"


def test_non_string_keys_are_refused_only_around_an_iterator(tmp_path):
    out = tmp_path / "doc.json"
    # a dict without an iterator is one encode call, which converts the keys
    doc = {"plain": {7: [], 2.5: {}, True: None, None: -0.0}, "streamed": iter([1])}
    cli._write_json(doc, str(out), indent=None)
    assert out.read_text() == json.JSONEncoder().encode({**doc, "streamed": [1]}) + "\n"
    with pytest.raises(TypeError, match="must be str"):
        cli._write_json({7: iter([])}, str(out), indent=None)
    assert out.read_text() == json.JSONEncoder().encode({**doc, "streamed": [1]}) + "\n"


def test_an_exception_mid_stream_leaves_no_file(tmp_path):
    def equations():
        for i in range(1000):
            yield {"terms": [i] * 10}
        raise RuntimeError("the emitter failed")

    out = tmp_path / "system.json"
    with pytest.raises(RuntimeError, match="emitter failed"):
        cli._write_json({"schema": "s", "equations": equations()}, str(out), indent=None)
    assert list(tmp_path.iterdir()) == []
