"""Grid mazes as graphs: generation, edits, and JSON round-trips.

A maze on a ``width x height`` grid is stored as its sorted tuple of
links (i, j), i < j, between grid-adjacent cells; the dense adjacency
matrix is derived on demand. Cells are indexed row-major with row 0 at
the bottom, so the lower-left cell is node 0. Freshly generated
mazes are perfect (their passage graph is a spanning tree); edits made
later through :func:`toggle_link` may break that property, which is
deliberate.
"""

import json
from dataclasses import dataclass
from operator import index

import numpy as np


class MazeFormatError(ValueError):
    """Raised when a maze document cannot be parsed or validated."""


def node_position(width: int, node: int) -> tuple[int, int]:
    """(row, col) of a node index, row 0 at the bottom."""
    return node // width, node % width


def grid_adjacent(width: int, height: int, i: int, j: int) -> bool:
    """True when cells i and j share a wall on the grid."""
    n = width * height
    if not (0 <= i < n and 0 <= j < n):
        return False
    ri, ci = node_position(width, i)
    rj, cj = node_position(width, j)
    return abs(ri - rj) + abs(ci - cj) == 1


def grid_links(width: int, height: int) -> list[tuple[int, int]]:
    """All grid-adjacent cell pairs (i, j) with i < j, lexicographic order."""
    pairs = []
    for node in range(width * height):
        row, col = node_position(width, node)
        if col + 1 < width:
            pairs.append((node, node + 1))
        if row + 1 < height:
            pairs.append((node, node + width))
    return pairs


def _grid_neighbors(width: int, height: int, node: int) -> list[int]:
    row, col = node_position(width, node)
    out = []
    if row > 0:
        out.append(node - width)
    if col > 0:
        out.append(node - 1)
    if col + 1 < width:
        out.append(node + 1)
    if row + 1 < height:
        out.append(node + width)
    return out


@dataclass(frozen=True)
class MazeGraph:
    """Grid cells joined by ``edges``, with an entrance and an exit.

    ``edges`` may be given as any iterable of (i, j) pairs with i < j; it
    is checked once and stored as a sorted tuple of tuples.
    """

    width: int
    height: int
    edges: tuple[tuple[int, int], ...]
    entrance: int
    exit: int
    seed: int

    def __post_init__(self):
        width = self.width
        if width < 1 or self.height < 1:
            raise ValueError("maze dimensions must be positive")
        n = width * self.height
        links = set()
        for k, (i, j) in enumerate(self.edges):
            i, j = index(i), index(j)
            if not (0 <= i < n and 0 <= j < n):
                problem = f"node pair ({i},{j}) out of range for {n} cells"
            elif i >= j:
                problem = f"pair ({i},{j}) must satisfy i < j"
            # j is i's right neighbour (not a row's first cell) or the cell above
            elif j - i != width and (j - i != 1 or j % width == 0):
                problem = f"cells ({i},{j}) are not grid-adjacent"
            elif (i, j) in links:
                problem = f"duplicate link ({i},{j})"
            else:
                links.add((i, j))
                continue
            raise ValueError(f"edges[{k}]: {problem}")
        if not (0 <= self.entrance < n and 0 <= self.exit < n):
            raise ValueError("entrance and exit must be valid node indices")
        if self.entrance == self.exit:
            raise ValueError("entrance and exit must differ")
        object.__setattr__(self, "edges", tuple(sorted(links)))

    @property
    def n_nodes(self) -> int:
        return self.width * self.height

    @property
    def adjacency(self) -> np.ndarray:
        """Symmetric 0/1 int8 adjacency matrix, built from ``edges`` on each read."""
        n = self.n_nodes
        adj = np.zeros((n, n), dtype=np.int8)
        i, j = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        adj[i, j] = adj[j, i] = 1
        return adj


def generate_perfect_maze(width: int, height: int, seed: int, exit: int | None = None) -> MazeGraph:
    """Carve a random spanning tree over the grid with a seeded DFS.

    The entrance is the lower-left cell (node 0); the exit defaults to
    the upper-right cell (node N-1). Output is a pure function of
    (width, height, seed, exit).
    """
    if width < 2 or height < 2:
        raise ValueError(f"maze width and height must be at least 2, got {width}x{height}")
    n = width * height
    exit_node = n - 1 if exit is None else int(exit)
    rng = np.random.default_rng(seed)
    edges = []
    visited = {0}
    stack = [0]
    while stack:
        current = stack[-1]
        frontier = [m for m in _grid_neighbors(width, height, current) if m not in visited]
        if not frontier:
            stack.pop()
            continue
        nxt = frontier[rng.integers(len(frontier))]
        edges.append((min(current, nxt), max(current, nxt)))
        visited.add(nxt)
        stack.append(nxt)
    return MazeGraph(width, height, edges, entrance=0, exit=exit_node, seed=int(seed))


def degrees(maze: MazeGraph) -> np.ndarray:
    """Node degrees d_j: the number of links at each node."""
    ends = np.array(maze.edges, dtype=np.intp).ravel()
    return np.bincount(ends, minlength=maze.n_nodes)


def toggle_link(maze: MazeGraph, i: int, j: int) -> MazeGraph:
    """Flip the link between grid-adjacent cells i and j.

    Returns a new maze; the input is untouched. Flipping a present link
    builds a wall, flipping an absent one breaks a wall.
    """
    if i == j:
        raise ValueError("cannot toggle a self-link")
    if not grid_adjacent(maze.width, maze.height, i, j):
        raise ValueError(f"cells {i} and {j} are not grid-adjacent")
    edges = set(maze.edges) ^ {(min(i, j), max(i, j))}
    return MazeGraph(maze.width, maze.height, edges, maze.entrance, maze.exit, maze.seed)


def serialize(maze: MazeGraph) -> str:
    """Render a maze as a JSON document (see :func:`deserialize`)."""
    doc = {
        "width": maze.width,
        "height": maze.height,
        "entrance": maze.entrance,
        "exit": maze.exit,
        "seed": maze.seed,
        "edges": maze.edges,
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_MAZE_KEYS = {"width", "height", "entrance", "exit", "seed", "edges"}


def deserialize(text: str) -> MazeGraph:
    """Parse a maze JSON document.

    The document is an object with integer fields ``width``, ``height``,
    ``entrance``, ``exit``, ``seed`` and an ``edges`` array of [i, j]
    pairs with i < j, in any order. Malformed input raises
    :class:`MazeFormatError` naming the offending field, down to the
    index k of a bad ``edges[k]``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MazeFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MazeFormatError("top-level value must be an object")
    missing = _MAZE_KEYS - doc.keys()
    if missing:
        raise MazeFormatError(f"missing keys: {sorted(missing)}")
    extra = doc.keys() - _MAZE_KEYS
    if extra:
        raise MazeFormatError(f"unknown keys: {sorted(extra)}")
    for key in ("width", "height", "entrance", "exit", "seed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise MazeFormatError(f"{key}: expected an integer")
    width, height = doc["width"], doc["height"]
    if width < 1 or height < 1:
        raise MazeFormatError("width and height must be positive")
    if not isinstance(doc["edges"], list):
        raise MazeFormatError("edges: expected an array")
    for k, pair in enumerate(doc["edges"]):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            raise MazeFormatError(f"edges[{k}]: expected a pair of integers")
    try:
        return MazeGraph(width, height, doc["edges"], doc["entrance"], doc["exit"], doc["seed"])
    except ValueError as exc:
        raise MazeFormatError(str(exc)) from exc
