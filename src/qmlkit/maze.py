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
from dataclasses import dataclass, fields
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

    Each field is checked on construction, and a bad one raises
    ValueError naming it: ``edges`` is any iterable of distinct
    grid-adjacent (i, j) pairs with i < j, stored sorted, and every other
    field and link end is an int, given as anything ``operator.index``
    takes but a bool.
    """

    width: int
    height: int
    edges: tuple[tuple[int, int], ...]
    entrance: int
    exit: int
    seed: int

    def __post_init__(self):
        for name in ("width", "height", "entrance", "exit", "seed"):
            value = getattr(self, name)
            try:
                if type(value) is bool:
                    raise TypeError
                object.__setattr__(self, name, index(value))
            except TypeError:
                raise ValueError(f"{name}: expected an integer") from None
        width = self.width
        if width < 1 or self.height < 1:
            raise ValueError("width and height must be positive")
        n = width * self.height
        links = set()
        for k, pair in enumerate(self.edges):
            try:
                i, j = pair
                if type(i) is bool or type(j) is bool:
                    raise TypeError
                i, j = index(i), index(j)
            except (TypeError, ValueError):
                raise ValueError(f"edges[{k}]: expected a pair of integers") from None
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
    exit = width * height - 1 if exit is None else exit
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
    return MazeGraph(width, height, edges, entrance=0, exit=exit, seed=seed)


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


def deserialize(text: str) -> MazeGraph:
    """Parse a maze JSON document: an object with exactly the fields of
    :class:`MazeGraph`, ``edges`` as an array of [i, j] pairs.

    Only the document's shape is checked here; the record checks each
    field. Malformed input raises :class:`MazeFormatError` naming the
    offending field, down to the index k of a bad ``edges[k]``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MazeFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MazeFormatError("top-level value must be an object")
    keys = {field.name for field in fields(MazeGraph)}
    for problem, names in (("missing", keys - doc.keys()), ("unknown", doc.keys() - keys)):
        if names:
            raise MazeFormatError(f"{problem} keys: {sorted(names)}")
    if not isinstance(doc["edges"], list):
        raise MazeFormatError("edges: expected an array")
    try:
        return MazeGraph(**doc)
    except ValueError as exc:
        raise MazeFormatError(str(exc)) from exc
