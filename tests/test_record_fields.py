"""The records and entry points check their own fields, whatever they are given.

Records and public functions are called with one field drawn from
arbitrary values: the JSON values the format fuzz draws (None, bools,
numbers, strings, arrays and objects) and NumPy integers. Each call must
either succeed or raise a ValueError whose message starts with a field's
name; a TypeError, an IndexError or any other exception fails the test.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmlkit.dynamics import QSWParams, build_model, evolve, initial_state, propagate
from qmlkit.embedding import EmbeddingModel, TrainConfig, dataset_from_json, gram, synth_dataset
from qmlkit.maze import MazeGraph, deserialize, generate_perfect_maze, serialize, toggle_link
from qmlkit.rlmaze import Action, MazeEnv, QLearningConfig, train
from qmlkit.states import DensityMatrix

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


# A valid call's other fields are small, so that no drawn value leads to long work.
MAZE = generate_perfect_maze(2, 2, seed=0)
WALK = {"p": 0.5, "gamma": 1.0, "dt": 0.5, "t_final": 1.0}
MODEL = build_model(MAZE, QSWParams(**WALK))
ENV = {"action_period": 0.5, "max_actions": 2}


def env(**fields) -> MazeEnv:
    return MazeEnv(MAZE, QSWParams(**WALK), **(ENV | fields))


def two_points(x) -> str:
    return json.dumps([{"x": x, "label": "A"}, {"x": 0.0, "label": "B"}], default=int)


# name: (call, the keyword arguments of a valid call)
ENTRY_POINTS = {
    "MazeGraph": (lambda edges: MazeGraph(2, 2, edges, 0, 3, 0), {"edges": [(0, 1)]}),  # the rest: TestMazeGraphFields
    "generate_perfect_maze": (generate_perfect_maze, {"width": 2, "height": 2, "seed": 0}),
    "QSWParams": (QSWParams, WALK),
    "propagate": (
        lambda n_steps, first_step: propagate(initial_state(MODEL), MODEL, n_steps, first_step),
        {"n_steps": 1, "first_step": 0},
    ),
    "evolve": (lambda sample_every: evolve(initial_state(MODEL), MODEL, sample_every), {"sample_every": 1}),
    "MazeEnv": (env, ENV),
    "QLearningConfig": (QLearningConfig, {"learning_rate": 0.1, "discount": 1.0, "epsilon_start": 1.0, "epsilon_end": 0.05}),
    "train": (lambda episodes, seed: train(env(), QLearningConfig(), episodes, seed), {"episodes": 2, "seed": 0}),
    "TrainConfig": (TrainConfig, {"learning_rate": 0.1, "epochs": 1, "seed": 0}),
    "synth_dataset": (synth_dataset, {"n_per_class": 2, "seed": 0}),
    "gram": (
        lambda shots, seed: gram(synth_dataset(2, 0), EmbeddingModel((0.0, 0.0, 0.0)), "sampled", shots, seed),
        {"shots": 10, "seed": 0},
    ),
    "EmbeddingModel": (EmbeddingModel, {"thetas": (0.0, 0.0, 0.0)}),
    "dataset_from_json": (lambda x: dataset_from_json(two_points(x)), {"x": 0.0}),
    "toggle_link": (lambda i, j: toggle_link(MAZE, i, j), {"i": 0, "j": 1}),
    "Action.toggle": (Action.toggle, {"i": 0, "j": 1}),
    "DensityMatrix.basis_state": (DensityMatrix.basis_state, {"dim": 2, "index": 0}),
}
# Fields whose value sets the work done; a larger integer is valid but slow.
SIZES = {"width", "height", "n_steps", "episodes", "n_per_class", "dim"}
# How a message names a field, where not by the bare name: a check on two
# fields names both, and its message may start with the other one or neither.
TWO_CELLS = r"(toggle requires two distinct cells|cannot toggle a self-link|cells \S+ and \S+ are not grid-adjacent)$"
NAMED_BY = {
    "x": r"entry 0: x\b",
    "dt": r"(dt|t_final)\b",
    "t_final": r"(t_final\b|dt must satisfy 0 < dt <= t_final$)",
    "action_period": r"(action_period\b|max_actions \* action_period must not exceed t_final$)",
    "i": rf"(i\b|{TWO_CELLS})",
    "j": rf"(j\b|{TWO_CELLS})",
}


class TestEntryPointFields:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_one_arbitrary_field(self, entry, data):
        call, kwargs = ENTRY_POINTS[entry]
        field = data.draw(st.sampled_from(sorted(kwargs)), label="field")
        value = data.draw(values, label="value")
        assume(not (field in SIZES and is_integer(value) and value > 40))
        try:
            call(**(kwargs | {field: value}))
        except ValueError as exc:
            assert re.match(NAMED_BY.get(field, re.escape(field) + r"\b"), str(exc)), str(exc)
