"""The dataset and model JSON formats: round trips, and fuzzed garbage.

Garbage is any JSON value in the wrong place, including huge integers,
NaN and Infinity (which Python's json module reads and writes). Parsing
must either succeed or raise a ValueError whose message names the field
at fault; any other exception fails the test.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlkit.embedding import (
    EmbeddingModel,
    LabeledDataset1D,
    dataset_from_json,
    dataset_to_json,
    model_from_json,
)

DATASET_FIELD = re.compile(r"^(dataset\b|entry \d+: (x|label|expected)\b)")
MODEL_FIELD = re.compile(r"^thetas: ")

finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(),  # NaN, +-Infinity and finite values
)
scalars = st.none() | st.booleans() | numbers | st.text(max_size=5) | st.sampled_from(["A", "B"])
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["x", "label", "thetas", "config", "k"]), inner, max_size=4),
    max_leaves=12,
)


def parse_or_field_error(parse, text, field):
    try:
        return parse(text)
    except ValueError as exc:
        assert field.match(str(exc)), str(exc)
        return None


@st.composite
def datasets(draw):
    labels = draw(st.lists(st.sampled_from("AB"), min_size=2, max_size=20).filter(lambda ls: set(ls) == {"A", "B"}))
    points = draw(st.lists(finite, min_size=len(labels), max_size=len(labels)))
    return LabeledDataset1D(np.array(points), tuple(labels))


def model_document(thetas) -> str:
    # the shape embed-train --model-out writes
    return json.dumps({"config": {"seed": 0}, "thetas": list(thetas)}, sort_keys=True, indent=2) + "\n"


class TestDatasetFormat:
    @settings(max_examples=100, deadline=None)
    @given(ds=datasets())
    def test_round_trip(self, ds):
        restored = dataset_from_json(dataset_to_json(ds))
        assert restored.points.tobytes() == ds.points.tobytes()
        assert restored.labels == ds.labels

    @settings(max_examples=200, deadline=None)
    @given(doc=json_values)
    def test_arbitrary_document(self, doc):
        parsed = parse_or_field_error(dataset_from_json, json.dumps(doc), DATASET_FIELD)
        assert parsed is None or isinstance(parsed, LabeledDataset1D)

    @settings(max_examples=200, deadline=None)
    @given(ds=datasets(), data=st.data())
    def test_one_bad_value_in_a_valid_document(self, ds, data):
        doc = json.loads(dataset_to_json(ds))
        k = data.draw(st.integers(0, len(doc) - 1), label="entry")
        key = data.draw(st.sampled_from(["x", "label"]), label="key")
        doc[k][key] = data.draw(json_values, label="value")
        parsed = parse_or_field_error(dataset_from_json, json.dumps(doc), DATASET_FIELD)
        if parsed is None:
            return
        assert parsed.labels == tuple(item["label"] for item in doc)
        assert parsed.points.tolist() == [float(item["x"]) for item in doc]

    @pytest.mark.parametrize(
        "x, message",
        [
            ("1" + "0" * 400, "entry 1: x is too large for a float"),
            ("NaN", "entry 1: x must be finite"),
            ("-Infinity", "entry 1: x must be finite"),
            ("1e400", "entry 1: x must be finite"),
            ('"0.5"', "entry 1: x must be a number"),
            ("true", "entry 1: x must be a number"),
        ],
        ids=["huge-int", "nan", "-inf", "1e400", "string", "bool"],
    )
    def test_bad_x_names_the_entry(self, x, message):
        text = f'[{{"x": 0.1, "label": "A"}}, {{"x": {x}, "label": "B"}}]'
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataset_from_json(text)

    @pytest.mark.parametrize("label", ['"C"', "1", "null", '["A"]'])
    def test_bad_label_names_the_entry(self, label):
        with pytest.raises(ValueError, match=r"^entry 1: label must be"):
            dataset_from_json(f'[{{"x": 0.1, "label": "A"}}, {{"x": 0.2, "label": {label}}}]')

    @pytest.mark.parametrize("text", ["[]", "{}", '"A"', "0"])
    def test_not_a_non_empty_array(self, text):
        with pytest.raises(ValueError, match="^dataset document must be a non-empty JSON array$"):
            dataset_from_json(text)

    def test_huge_integer_that_fits_a_float_parses(self):
        ds = dataset_from_json(f'[{{"x": {10**300}, "label": "A"}}, {{"x": 0, "label": "B"}}]')
        assert ds.points.tolist() == [1e300, 0.0]


class TestModelFormat:
    @settings(max_examples=100, deadline=None)
    @given(thetas=st.tuples(finite, finite, finite))
    def test_round_trip(self, thetas):
        model = model_from_json(model_document(thetas))
        assert model == EmbeddingModel(thetas)

    @settings(max_examples=200, deadline=None)
    @given(doc=json_values)
    def test_arbitrary_document(self, doc):
        parsed = parse_or_field_error(model_from_json, json.dumps(doc), MODEL_FIELD)
        assert parsed is None or isinstance(parsed, EmbeddingModel)

    @settings(max_examples=200, deadline=None)
    @given(thetas=st.lists(numbers | json_values, min_size=2, max_size=4))
    def test_arbitrary_thetas(self, thetas):
        parsed = parse_or_field_error(model_from_json, model_document(thetas), MODEL_FIELD)
        if parsed is not None:
            assert all(math.isfinite(t) for t in parsed.thetas)
            assert parsed.thetas == tuple(float(t) for t in thetas)

    @pytest.mark.parametrize(
        "angle, message",
        [
            ("-1" + "0" * 400, "thetas: angle 2 is too large for a float"),
            ("NaN", "thetas: angle 2 must be finite"),
            ("Infinity", "thetas: angle 2 must be finite"),
            ("null", "thetas: angle 2 must be a number"),
        ],
        ids=["huge-int", "nan", "inf", "null"],
    )
    def test_bad_angle_names_it(self, angle, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            model_from_json(f'{{"thetas": [0.1, 0.2, {angle}]}}')
