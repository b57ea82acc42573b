"""The records check their own fields, whatever they are given.

``MazeGraph`` and ``EmbeddingModel`` are built directly from arbitrary
field values: the JSON values the format fuzz draws (None, bools,
numbers, strings, arrays and objects) and NumPy integers. Each call must
either build the record or raise a ValueError whose message starts with
a field's name; a TypeError, or any other exception, fails the test.
"""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlkit.embedding import EmbeddingModel
from qmlkit.maze import MazeGraph, deserialize, serialize

from test_maze_policy_json import MAZE_KEYS, any_values, mazes

MAZE_FIELD = re.compile(r"^((width|height|entrance|exit|seed)\b|edges\[\d+\]: )")
SCALAR_KEYS = [key for key in MAZE_KEYS if key != "edges"]

values = any_values | st.integers(-3, 40).map(np.int64) | st.integers(0, 40).map(np.uint8)


def is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(is_integer, value))


def build_or_field_error(record, fields, field):
    """The record, or None after checking that its ValueError starts with a field's name."""
    try:
        return record(**fields)
    except ValueError as exc:
        assert field.match(str(exc)), str(exc)
        return None


def check_maze(maze):
    assert all(type(getattr(maze, key)) is int for key in SCALAR_KEYS)
    assert deserialize(serialize(maze)) == maze


class TestMazeGraphFields:
    @settings(max_examples=300, deadline=None)
    @given(maze=mazes(), data=st.data())
    def test_one_arbitrary_field(self, maze, data):
        """A value of the wrong type names its own field, down to edges[k]."""
        fields = {key: getattr(maze, key) for key in MAZE_KEYS}
        key = data.draw(st.sampled_from(MAZE_KEYS), label="field")
        value = data.draw(values, label="value")
        if key != "edges":
            fields[key] = value
            named = None if is_integer(value) else f"{key}: expected an integer"
        else:
            edges = list(maze.edges)
            if edges and data.draw(st.booleans(), label="one end"):
                k, end = data.draw(st.integers(0, len(edges) - 1), label="k"), data.draw(st.integers(0, 1), label="end")
                edges[k] = tuple(value if e == end else v for e, v in enumerate(edges[k]))
                named = None if is_integer(value) else f"edges[{k}]: expected a pair of integers"
            else:
                k = data.draw(st.integers(0, len(edges)), label="k")
                edges.insert(k, value)
                named = None if is_pair(value) else f"edges[{k}]: expected a pair of integers"
            fields["edges"] = edges
        try:
            built = MazeGraph(**fields)
        except ValueError as exc:
            assert MAZE_FIELD.match(str(exc)), str(exc)
            assert named is None or str(exc) == named
            return
        assert named is None
        check_maze(built)

    @settings(max_examples=200, deadline=None)
    @given(
        fields=st.fixed_dictionaries(
            {key: values for key in SCALAR_KEYS} | {"edges": st.lists(values | st.tuples(values, values), max_size=4)}
        )
    )
    def test_all_fields_arbitrary(self, fields):
        built = build_or_field_error(MazeGraph, fields, MAZE_FIELD)
        if built is not None:
            check_maze(built)


class TestEmbeddingModelFields:
    @settings(max_examples=200, deadline=None)
    @given(thetas=st.tuples(values, values, values))
    def test_arbitrary_angles(self, thetas):
        built = build_or_field_error(EmbeddingModel, {"thetas": thetas}, re.compile(r"^thetas: angle [0-2] "))
        if built is not None:
            assert all(type(t) is float and np.isfinite(t) for t in built.thetas)
            assert built.thetas == tuple(float(t) for t in thetas)
