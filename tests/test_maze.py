import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlkit.maze import (
    MazeFormatError,
    MazeGraph,
    degrees,
    deserialize,
    generate_perfect_maze,
    grid_adjacent,
    grid_links,
    node_position,
    serialize,
    toggle_link,
)

from oracles import connected_components, is_spanning_tree


def path_maze(n):
    """1 x n maze whose passage graph is the path 0-1-...-(n-1)."""
    edges = [(i, i + 1) for i in range(n - 1)]
    return MazeGraph(width=n, height=1, edges=edges, entrance=0, exit=n - 1, seed=0)


class TestGeneration:
    def test_2x2_has_three_links(self):
        maze = generate_perfect_maze(2, 2, seed=0)
        assert maze.n_nodes == 4
        assert len(maze.edges) == 3

    def test_6x6_is_spanning_tree(self):
        maze = generate_perfect_maze(6, 6, seed=3)
        assert maze.n_nodes == 36
        assert len(maze.edges) == 35
        assert is_spanning_tree(maze.n_nodes, maze.edges)

    def test_deterministic(self):
        a = generate_perfect_maze(5, 4, seed=42)
        b = generate_perfect_maze(5, 4, seed=42)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_perfect_maze(6, 6, seed=0)
        b = generate_perfect_maze(6, 6, seed=1)
        assert not np.array_equal(a.adjacency, b.adjacency)

    def test_entrance_and_exit_defaults(self):
        maze = generate_perfect_maze(4, 3, seed=0)
        assert maze.entrance == 0
        assert maze.exit == 11  # upper-right cell

    def test_custom_exit(self):
        maze = generate_perfect_maze(3, 3, seed=0, exit=4)
        assert maze.exit == 4

    def test_rejects_small_dimensions(self):
        with pytest.raises(ValueError):
            generate_perfect_maze(1, 5, seed=0)
        with pytest.raises(ValueError):
            generate_perfect_maze(4, 1, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_all_links_grid_adjacent(self, seed):
        maze = generate_perfect_maze(5, 6, seed=seed)
        for i, j in maze.edges:
            ri, ci = node_position(maze.width, i)
            rj, cj = node_position(maze.width, j)
            assert abs(ri - rj) + abs(ci - cj) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_tree_property_across_seeds(self, seed):
        maze = generate_perfect_maze(4, 5, seed=seed)
        assert is_spanning_tree(maze.n_nodes, maze.edges)


class TestDegrees:
    def test_path_graph(self):
        np.testing.assert_array_equal(degrees(path_maze(3)), [1, 2, 1])

    def test_handshake_lemma(self):
        maze = generate_perfect_maze(6, 6, seed=9)
        assert degrees(maze).sum() == 2 * (maze.n_nodes - 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_2x2_tree_shape(self, seed):
        # The 2x2 grid is a 4-cycle; deleting any one of its 4 edges is
        # the complete list of spanning trees, and each is a path with
        # degree multiset {1, 1, 2, 2}.
        maze = generate_perfect_maze(2, 2, seed=seed)
        assert sorted(degrees(maze)) == [1, 1, 2, 2]

    @settings(max_examples=100, deadline=None)
    @given(
        width=st.integers(2, 5),
        height=st.integers(2, 5),
        seed=st.integers(0, 2**16),
        toggles=st.lists(st.integers(0, 39), max_size=8),
    )
    def test_dense_views_agree_with_the_edges(self, width, height, seed, toggles):
        maze = generate_perfect_maze(width, height, seed=seed)
        links = grid_links(width, height)
        for k in toggles:
            maze = toggle_link(maze, *links[k % len(links)])
        adj = maze.adjacency
        np.testing.assert_array_equal(degrees(maze), adj.sum(axis=0))
        assert list(zip(*np.nonzero(np.triu(adj)))) == list(maze.edges)


class TestToggleLink:
    def test_involution(self):
        maze = generate_perfect_maze(4, 4, seed=2)
        i, j = maze.edges[0]
        back = toggle_link(toggle_link(maze, i, j), i, j)
        np.testing.assert_array_equal(back.adjacency, maze.adjacency)

    def test_original_unmodified(self):
        maze = generate_perfect_maze(3, 3, seed=1)
        i, j = maze.edges[0]
        toggle_link(maze, i, j)
        assert maze.adjacency[i, j] == 1

    def test_removing_tree_edge_disconnects(self):
        maze = generate_perfect_maze(4, 4, seed=5)
        i, j = maze.edges[0]
        cut = toggle_link(maze, i, j)
        assert connected_components(cut.n_nodes, cut.edges) == 2

    def test_adding_edge_creates_one_cycle(self):
        maze = generate_perfect_maze(4, 4, seed=5)
        present = set(maze.edges)
        absent = next(p for p in grid_links(4, 4) if p not in present)
        looped = toggle_link(maze, *absent)
        assert len(looped.edges) == maze.n_nodes  # N edges on N nodes
        assert connected_components(looped.n_nodes, looped.edges) == 1  # connected + 1 extra edge = 1 cycle

    def test_only_the_pair_changes(self):
        maze = generate_perfect_maze(5, 5, seed=7)
        i, j = maze.edges[3]
        flipped = toggle_link(maze, i, j)
        diff = maze.adjacency.astype(int) - flipped.adjacency.astype(int)
        assert set(zip(*np.nonzero(diff))) == {(i, j), (j, i)}

    def test_rejects_non_adjacent(self):
        maze = generate_perfect_maze(3, 3, seed=0)
        with pytest.raises(ValueError):
            toggle_link(maze, 0, 8)

    def test_rejects_self_link(self):
        maze = generate_perfect_maze(3, 3, seed=0)
        with pytest.raises(ValueError):
            toggle_link(maze, 4, 4)

    @pytest.mark.parametrize(
        "i, j, message",
        [(0, True, "j: expected an integer"), (1.0, 2, "i: expected an integer")],
        ids=["bool", "float"],
    )
    def test_rejects_a_cell_that_is_not_an_integer(self, i, j, message):
        maze = generate_perfect_maze(3, 3, seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            toggle_link(maze, i, j)


@st.composite
def grid_and_links(draw):
    """A 1x2-5x5 grid and a set of links (i < j), in any order, mixing near pairs, row wraps and arbitrary pairs."""
    width = draw(st.integers(1, 5))
    height = draw(st.integers(2 if width == 1 else 1, 5))
    n = width * height
    near = [(i, i + d) for d in (1, width) for i in range(n - d)]  # includes row wraps
    arbitrary = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    links = draw(st.sets(st.sampled_from(near) | arbitrary, max_size=2 * n))
    return width, height, draw(st.permutations(sorted(links)))


class TestMazeGraphValidation:
    @pytest.mark.parametrize(
        "width, height, edges, message",
        [
            (2, 2, [(0, 1), (2, 2)], r"edges\[1\]: pair \(2,2\) must satisfy i < j"),
            (2, 2, [(0, 1), (0, 3)], r"edges\[1\]: cells \(0,3\) are not grid-adjacent"),
            # cells 2 and 3 end and start a row on a width-3 grid; (3, 5) is also bad but later
            (3, 2, [(2, 3), (3, 5)], r"edges\[0\]: cells \(2,3\) are not grid-adjacent"),
            (2, 2, [(0, 1), (1, 3), (0, 1)], r"edges\[2\]: duplicate link \(0,1\)"),
            (2, 2, [(0, 1), (2, 0)], r"edges\[1\]: pair \(2,0\) must satisfy i < j"),
            (2, 2, [(3, 4)], r"edges\[0\]: node pair \(3,4\) out of range for 4 cells"),
            (2, 2, [(-1, 0)], r"edges\[0\]: node pair \(-1,0\) out of range"),
        ],
        ids=["diagonal", "non-grid", "row-wrap", "duplicate", "reversed", "out-of-range", "negative"],
    )
    def test_rejects_invalid_adjacency(self, width, height, edges, message):
        with pytest.raises(ValueError, match=message):
            MazeGraph(width, height, edges, entrance=0, exit=width * height - 1, seed=0)

    @pytest.mark.parametrize("width, height", [(0, 3), (3, 0), (-1, 2)], ids=["width-0", "height-0", "negative"])
    def test_rejects_a_grid_without_cells(self, width, height):
        with pytest.raises(ValueError, match="^width and height must be positive$"):
            MazeGraph(width, height, [], entrance=0, exit=0, seed=0)

    @pytest.mark.parametrize("edges", [None, 5], ids=["none", "int"])
    def test_rejects_edges_that_are_not_iterable(self, edges):
        with pytest.raises(ValueError, match="^edges: expected an iterable of pairs$"):
            MazeGraph(3, 3, edges, entrance=0, exit=8, seed=0)

    @pytest.mark.parametrize("field", ["width", "height", "entrance", "exit", "seed"])
    @pytest.mark.parametrize("value", [True, 2.0, "2", None, [2]], ids=["bool", "float", "str", "none", "list"])
    def test_rejects_a_field_that_is_not_an_integer(self, field, value):
        fields = dict(width=3, height=3, edges=[], entrance=0, exit=8, seed=0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field}: expected an integer$"):
            MazeGraph(**fields)

    @pytest.mark.parametrize(
        "pair",
        [(0.0, 1), (0, True), (0,), (0, 1, 2), "01", 1, None, (np.True_, 1)],
        ids=["float", "bool", "short", "long", "str", "int", "none", "numpy-bool"],
    )
    def test_rejects_an_edge_that_is_not_a_pair_of_integers(self, pair):
        with pytest.raises(ValueError, match=r"^edges\[1\]: expected a pair of integers$"):
            MazeGraph(3, 3, [(0, 1), pair], entrance=0, exit=8, seed=0)

    def test_numpy_integers_are_stored_as_int(self):
        maze = MazeGraph(*map(np.int64, (3, 3)), [np.array([0, 1])], np.int64(0), np.uint8(8), np.int64(5))
        assert maze == MazeGraph(3, 3, [(0, 1)], entrance=0, exit=8, seed=5)
        assert all(type(v) is int for v in (maze.width, maze.height, maze.entrance, maze.exit, maze.seed, *maze.edges[0]))
        assert deserialize(serialize(maze)) == maze

    @pytest.mark.parametrize("seed", [-5, np.int64(-5)], ids=["int", "numpy"])
    def test_rejects_a_seed_that_cannot_regenerate_a_maze(self, seed):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -5$"):
            MazeGraph(3, 3, [(0, 1)], entrance=0, exit=8, seed=seed)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"exit": 2.7}, "exit: expected an integer"),
            ({"seed": True}, "seed: expected an integer"),
            ({"seed": 2.5}, "seed: expected an integer"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"width": 1}, "width must be >= 2, got 1"),
            ({"height": np.int64(3), "width": 2.0}, "width: expected an integer"),
        ],
        ids=["float-exit", "bool-seed", "float-seed", "negative-seed", "narrow", "float-width"],
    )
    def test_generation_passes_no_rounded_field(self, kwargs, message):
        fields = dict(width=3, height=3, seed=1) | kwargs
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate_perfect_maze(**fields)

    @settings(max_examples=200, deadline=None)
    @given(case=grid_and_links())
    def test_accepts_exactly_grid_adjacent_links(self, case):
        width, height, links = case
        bad = [(k, i, j) for k, (i, j) in enumerate(links) if not grid_adjacent(width, height, i, j)]
        if bad:
            with pytest.raises(ValueError, match=r"edges\[%d\]: cells \(%d,%d\) are not grid-adjacent" % bad[0]):
                MazeGraph(width, height, links, entrance=0, exit=width * height - 1, seed=0)
        else:
            maze = MazeGraph(width, height, links, entrance=0, exit=width * height - 1, seed=0)
            assert maze.edges == tuple(sorted(links))

    def test_huge_grid_parses_without_a_dense_array(self):
        for width in (2**31, 10**30):
            maze = MazeGraph(width, 1, [(width - 2, width - 1), (0, 1)], entrance=0, exit=width - 1, seed=0)
            text = serialize(maze)
            assert deserialize(text) == maze
            assert maze.edges == ((0, 1), (width - 2, width - 1))


class TestGridHelpers:
    def test_grid_adjacent(self):
        assert grid_adjacent(3, 3, 0, 1)
        assert grid_adjacent(3, 3, 0, 3)
        assert not grid_adjacent(3, 3, 0, 4)
        assert not grid_adjacent(3, 3, 2, 3)  # row wrap is not adjacency
        assert not grid_adjacent(3, 3, 0, 9)

    def test_grid_links_count(self):
        # w x h grid: h*(w-1) horizontal + w*(h-1) vertical pairs
        assert len(grid_links(6, 6)) == 60
        assert len(grid_links(2, 2)) == 4


class TestSerialization:
    def test_round_trip(self):
        maze = generate_perfect_maze(5, 3, seed=11)
        assert deserialize(serialize(maze)) == maze

    def test_round_trip_after_edits(self):
        maze = generate_perfect_maze(4, 4, seed=1)
        maze = toggle_link(maze, *maze.edges[0])  # no longer a tree
        assert deserialize(serialize(maze)) == maze

    def test_empty_document_rejected(self):
        with pytest.raises(MazeFormatError):
            deserialize("")

    def test_missing_key_rejected(self):
        with pytest.raises(MazeFormatError, match="missing"):
            deserialize('{"width": 2}')

    def test_unknown_key_rejected(self):
        maze = generate_perfect_maze(2, 2, seed=0)
        import json

        doc = json.loads(serialize(maze))
        doc["extra"] = 1
        with pytest.raises(MazeFormatError, match="unknown"):
            deserialize(json.dumps(doc))

    def test_unsorted_pair_names_offender(self):
        text = (
            '{"width": 2, "height": 2, "entrance": 0, "exit": 3, "seed": 0,'
            ' "edges": [[1, 0]]}'
        )
        with pytest.raises(MazeFormatError, match=r"\(1,0\)"):
            deserialize(text)

    def test_duplicate_edge_names_offender(self):
        text = (
            '{"width": 2, "height": 2, "entrance": 0, "exit": 3, "seed": 0,'
            ' "edges": [[0, 1], [0, 1]]}'
        )
        with pytest.raises(MazeFormatError, match=r"duplicate.*\(0,1\)"):
            deserialize(text)

    def test_non_adjacent_edge_rejected(self):
        text = (
            '{"width": 2, "height": 2, "entrance": 0, "exit": 3, "seed": 0,'
            ' "edges": [[0, 3]]}'
        )
        with pytest.raises(MazeFormatError, match="not grid-adjacent"):
            deserialize(text)

    def test_out_of_range_edge_rejected(self):
        text = (
            '{"width": 2, "height": 2, "entrance": 0, "exit": 3, "seed": 0,'
            ' "edges": [[0, 4]]}'
        )
        with pytest.raises(MazeFormatError, match="out of range"):
            deserialize(text)

    def test_entrance_equals_exit_rejected(self):
        text = (
            '{"width": 2, "height": 2, "entrance": 0, "exit": 0, "seed": 0,'
            ' "edges": [[0, 1]]}'
        )
        with pytest.raises(MazeFormatError):
            deserialize(text)
