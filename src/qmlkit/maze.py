"""Grid mazes as graphs: generation, edits, and JSON round-trips.

A maze on a ``width x height`` grid is stored as a symmetric 0/1
adjacency matrix over the cells. Cells are indexed row-major with row 0
at the bottom, so the lower-left cell is node 0. Freshly generated
mazes are perfect (their passage graph is a spanning tree); edits made
later through :func:`toggle_link` may break that property, which is
deliberate.
"""

import json
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class MazeGraph:
    """Symmetric 0/1 adjacency over grid cells, with entrance and exit."""

    width: int
    height: int
    adjacency: np.ndarray
    entrance: int
    exit: int
    seed: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("maze dimensions must be positive")
        n = self.width * self.height
        adj = np.asarray(self.adjacency)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency shape {adj.shape} does not match {n} cells")
        if not np.all((adj == 0) | (adj == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        adj = adj.astype(np.int8)
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(adj.diagonal() != 0):
            raise ValueError("adjacency diagonal must be zero")
        # For i < j: j is i's right neighbour (not a row's first cell) or the cell above.
        i, j = np.nonzero(np.triu(adj))
        bad = np.flatnonzero(((j - i != 1) | (j % self.width == 0)) & (j - i != self.width))
        if bad.size:
            raise ValueError(f"link ({i[bad[0]]},{j[bad[0]]}) does not join grid-adjacent cells")
        if not (0 <= self.entrance < n and 0 <= self.exit < n):
            raise ValueError("entrance and exit must be valid node indices")
        if self.entrance == self.exit:
            raise ValueError("entrance and exit must differ")
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    def __eq__(self, other):
        if not isinstance(other, MazeGraph):
            return NotImplemented
        return (
            (self.width, self.height, self.entrance, self.exit, self.seed)
            == (other.width, other.height, other.entrance, other.exit, other.seed)
            and np.array_equal(self.adjacency, other.adjacency)
        )

    @property
    def n_nodes(self) -> int:
        return self.width * self.height

    def edges(self) -> list[tuple[int, int]]:
        """Present links as sorted (i, j) pairs with i < j."""
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(self.adjacency)))]


def generate_perfect_maze(width: int, height: int, seed: int, exit: int | None = None) -> MazeGraph:
    """Carve a random spanning tree over the grid with a seeded DFS.

    The entrance is the lower-left cell (node 0); the exit defaults to
    the upper-right cell (node N-1). Output is a pure function of
    (width, height, seed, exit).
    """
    if width < 2 or height < 2:
        raise ValueError("maze must be at least 2x2")
    n = width * height
    exit_node = n - 1 if exit is None else int(exit)
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=np.int8)
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    stack = [0]
    while stack:
        current = stack[-1]
        frontier = [m for m in _grid_neighbors(width, height, current) if not visited[m]]
        if not frontier:
            stack.pop()
            continue
        nxt = frontier[rng.integers(len(frontier))]
        adj[current, nxt] = adj[nxt, current] = 1
        visited[nxt] = True
        stack.append(nxt)
    return MazeGraph(width, height, adj, entrance=0, exit=exit_node, seed=int(seed))


def degrees(maze: MazeGraph) -> np.ndarray:
    """Node degrees d_j as column sums of the adjacency matrix."""
    return maze.adjacency.sum(axis=0).astype(np.int64)


def toggle_link(maze: MazeGraph, i: int, j: int) -> MazeGraph:
    """Flip the link between grid-adjacent cells i and j.

    Returns a new maze; the input is untouched. Flipping a present link
    builds a wall, flipping an absent one breaks a wall.
    """
    if i == j:
        raise ValueError("cannot toggle a self-link")
    if not grid_adjacent(maze.width, maze.height, i, j):
        raise ValueError(f"cells {i} and {j} are not grid-adjacent")
    adj = maze.adjacency.copy()
    adj[i, j] ^= 1
    adj[j, i] ^= 1
    return MazeGraph(maze.width, maze.height, adj, maze.entrance, maze.exit, maze.seed)


def connected_components(maze: MazeGraph) -> int:
    """Number of connected components of the passage graph."""
    n = maze.n_nodes
    seen = np.zeros(n, dtype=bool)
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        queue = [start]
        seen[start] = True
        while queue:
            node = queue.pop()
            for nbr in np.nonzero(maze.adjacency[node])[0]:
                if not seen[nbr]:
                    seen[nbr] = True
                    queue.append(int(nbr))
    return count


def is_spanning_tree(maze: MazeGraph) -> bool:
    """True when the passage graph is connected with exactly N-1 links."""
    n_edges = int(maze.adjacency.sum()) // 2
    return n_edges == maze.n_nodes - 1 and connected_components(maze) == 1


def serialize(maze: MazeGraph) -> str:
    """Render a maze as a JSON document (see :func:`deserialize`)."""
    doc = {
        "width": maze.width,
        "height": maze.height,
        "entrance": maze.entrance,
        "exit": maze.exit,
        "seed": maze.seed,
        "edges": [[i, j] for i, j in maze.edges()],
    }
    return json.dumps(doc, indent=2) + "\n"


_MAZE_KEYS = {"width", "height", "entrance", "exit", "seed", "edges"}


def deserialize(text: str) -> MazeGraph:
    """Parse a maze JSON document.

    The document is an object with integer fields ``width``, ``height``,
    ``entrance``, ``exit``, ``seed`` and an ``edges`` array of [i, j]
    pairs with i < j. Adjacency is rebuilt symmetrically from the edge
    list; malformed input raises :class:`MazeFormatError` naming the
    offending field.
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
    n = width * height
    if not isinstance(doc["edges"], list):
        raise MazeFormatError("edges: expected an array")
    adj = np.zeros((n, n), dtype=np.int8)
    for k, pair in enumerate(doc["edges"]):
        where = f"edges[{k}]"
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            raise MazeFormatError(f"{where}: expected a pair of integers")
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise MazeFormatError(f"{where}: node pair ({i},{j}) out of range for {n} cells")
        if i >= j:
            raise MazeFormatError(f"{where}: pair ({i},{j}) must satisfy i < j")
        if not grid_adjacent(width, height, i, j):
            raise MazeFormatError(f"{where}: cells ({i},{j}) are not grid-adjacent")
        if adj[i, j]:
            raise MazeFormatError(f"{where}: duplicate link ({i},{j})")
        adj[i, j] = adj[j, i] = 1
    try:
        return MazeGraph(width, height, adj, doc["entrance"], doc["exit"], doc["seed"])
    except ValueError as exc:
        raise MazeFormatError(str(exc)) from exc
