"""The maze and policy JSON formats: round trips, and fuzzed garbage.

Garbage is any JSON value in the wrong place, including huge integers,
NaN and Infinity. Parsing must either succeed or raise a
MazeFormatError / ValueError whose message names the field at fault;
any other exception fails the test.

A valid maze document with one bad value may carry a huge ``width`` or
``height`` (such as 2**31 or 10**30): ``deserialize`` checks the edge
list link by link and allocates nothing of the grid's size, so such a
document parses or fails naming its field without asking for memory.
"""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlkit.maze import MazeFormatError, MazeGraph, deserialize, grid_links, serialize
from qmlkit.rlmaze import Action, Policy

from test_cli import RL_FLAGS, run_cli

MAZE_FIELD = re.compile(r"^(width|height|entrance|exit|seed|edges|missing keys|unknown keys|top-level value|invalid JSON)\b")
POLICY_FIELD = re.compile(r"^(policy|config)\b")
MAZE_KEYS = ["width", "height", "entrance", "exit", "seed", "edges"]


def json_values(integers):
    """Arbitrary JSON values whose integers come from ``integers``."""
    numbers = integers | st.floats()  # NaN, +-Infinity and finite values
    scalars = st.none() | st.booleans() | numbers | st.text(max_size=5)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(MAZE_KEYS + ["policy", "config", "k"]), inner, max_size=4),
        max_leaves=12,
    )


any_values = json_values(st.integers() | st.integers(-(10**400), 10**400))
small_values = json_values(st.integers(-3, 6))


def parse_or_field_error(parse, text, field):
    try:
        return parse(text)
    except ValueError as exc:  # MazeFormatError is a ValueError
        assert field.match(str(exc)), str(exc)
        return None


@st.composite
def mazes(draw):
    """Any valid maze document's graph: a 1x2 to 6x6 grid with any subset of its links."""
    width = draw(st.integers(1, 6))
    height = draw(st.integers(2 if width == 1 else 1, 6))
    n = width * height
    edges = draw(st.lists(st.sampled_from(grid_links(width, height)), unique=True))
    entrance, exit = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    seed = draw(st.integers(0) | st.integers(0, 10**400))
    return MazeGraph(width, height, edges, entrance, exit, seed)


class TestMazeFormat:
    @settings(max_examples=100, deadline=None)
    @given(maze=mazes())
    def test_round_trip(self, maze):
        text = serialize(maze)
        restored = deserialize(text)
        assert restored == maze and restored.seed == maze.seed
        assert serialize(restored) == text

    @settings(max_examples=200, deadline=None)
    @given(doc=small_values)
    def test_arbitrary_document(self, doc):
        parsed = parse_or_field_error(deserialize, json.dumps(doc), MAZE_FIELD)
        assert parsed is None or isinstance(parsed, MazeGraph)

    @settings(max_examples=300, deadline=None)
    @given(maze=mazes(), data=st.data())
    def test_one_bad_value_in_a_valid_document(self, maze, data):
        doc = json.loads(serialize(maze))
        places = list(MAZE_KEYS) + [("edges", k) for k in range(len(doc["edges"]))]
        place = data.draw(st.sampled_from(places), label="place")
        if isinstance(place, str):
            value = data.draw(any_values, label="value")
            doc[place] = value
        else:
            pair = doc["edges"][place[1]]
            value = data.draw(any_values, label="value")
            if data.draw(st.booleans(), label="whole pair"):
                doc["edges"][place[1]] = value
            else:
                pair[data.draw(st.integers(0, 1), label="end")] = value
        try:
            parsed = deserialize(json.dumps(doc))
        except MazeFormatError as exc:
            assert MAZE_FIELD.match(str(exc)), str(exc)
            key = place if isinstance(place, str) else "edges"
            if not isinstance(value, int) or isinstance(value, bool):
                assert str(exc).startswith(key), str(exc)  # a value of the wrong type names its own field
            return
        assert parsed.width * parsed.height == parsed.n_nodes
        assert serialize(parsed) == serialize(deserialize(serialize(parsed)))


@st.composite
def policies(draw):
    links = st.tuples(st.integers(0, 50), st.integers(0, 50)).filter(lambda ij: ij[0] != ij[1])
    actions = st.just(Action.noop()) | links.map(lambda ij: Action.toggle(*ij))
    keys = st.tuples(st.integers(0, 20), st.lists(links, max_size=5).map(tuple))
    table = draw(st.dictionaries(keys, actions, max_size=8))
    config = draw(
        st.dictionaries(
            st.text(max_size=8),
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
            max_size=6,
        )
    )
    return Policy(table, config)


def refuses_non_finite_config(policy):
    """Whether the policy's config holds a non-finite value; if so, check that to_json refuses it by its key."""
    bad = [key for key, value in policy.config.items() if isinstance(value, float) and not math.isfinite(value)]
    if not bad:
        return False
    with pytest.raises(ValueError, match=r"^config\[") as refused:
        policy.to_json()
    assert any(str(refused.value).startswith(f"config[{key!r}]: ") for key in bad), str(refused.value)
    return True


class TestPolicyFormat:
    @settings(max_examples=100, deadline=None)
    @given(policy=policies())
    def test_round_trip(self, policy):
        if refuses_non_finite_config(policy):
            return
        text = policy.to_json()
        restored = Policy.from_json(text)
        assert restored.table == policy.table
        assert restored.config == policy.config
        assert restored.to_json() == text

    @settings(max_examples=200, deadline=None)
    @given(doc=any_values)
    def test_arbitrary_document(self, doc):
        parsed = parse_or_field_error(Policy.from_json, json.dumps(doc), POLICY_FIELD)
        assert parsed is None or isinstance(parsed, Policy)

    @settings(max_examples=300, deadline=None)
    @given(policy=policies(), data=st.data(), value=any_values)
    def test_one_bad_value_in_a_valid_document(self, policy, data, value):
        if refuses_non_finite_config(policy):
            return
        doc = json.loads(policy.to_json())
        keys = sorted(doc["policy"])
        place = data.draw(st.sampled_from(["config", "policy", "label", "key"] if keys else ["config", "policy"]))
        if place in ("config", "policy"):
            doc[place] = value
        else:
            key = data.draw(st.sampled_from(keys), label="entry")
            if place == "label":
                doc["policy"][key] = value
            else:
                doc["policy"][data.draw(st.text(max_size=12), label="new key")] = doc["policy"].pop(key)
        try:
            parsed = Policy.from_json(json.dumps(doc))
        except ValueError as exc:
            assert POLICY_FIELD.match(str(exc)), str(exc)
            if place == "config" or (place == "policy" and not isinstance(value, dict)):
                assert str(exc).startswith(f"{place}:"), str(exc)
            elif place in ("label", "key"):
                assert str(exc).startswith("policy["), str(exc)
            return
        assert len(parsed.table) <= len(doc["policy"])


class TestCliRejectsGarbage:
    def check_exit_2(self, result, field):
        assert result.returncode == 2
        assert field in result.stderr
        assert "Traceback" not in result.stderr

    def test_maze_with_non_integer_width(self, tmp_path):
        maze = tmp_path / "maze.json"
        maze.write_text('{"width": [3], "height": 1, "entrance": 0, "exit": 2, "seed": 0, "edges": []}')
        result = run_cli("qsw-run", "--maze", maze, "--p", 0.5, "-o", tmp_path / "t.csv")
        self.check_exit_2(result, "width: expected an integer")

    def test_policy_with_non_string_label(self, tmp_path):
        maze = tmp_path / "maze.json"
        assert run_cli("maze-gen", "--width", 3, "--height", 3, "--seed", 2, "-o", maze).returncode == 0
        policy = tmp_path / "policy.json"
        policy.write_text('{"config": {}, "policy": {"0|": {"toggle": [0, 1]}}}')
        result = run_cli("rl-eval", "--maze", maze, *RL_FLAGS, "--policy", policy)
        self.check_exit_2(result, "policy['0|']: action label must be a string")
