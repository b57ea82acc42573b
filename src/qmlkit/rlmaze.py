"""Episodic control of maze topology to speed up the walker's escape.

The environment wraps one maze and one parameter set. An episode runs
the Lindblad dynamics from the entrance state; at K periodic instants
the agent may toggle a single grid-adjacent link (build or break a
wall) or do nothing, after which the generator is rebuilt with degrees
recomputed for the new topology. The reward for a step is the sink
population gained during its interval, so episode rewards telescope to
the final escape probability. After the K-th action the remaining time
up to the horizon is integrated and credited to the last step.

Dynamics are deterministic, so a fixed policy always reproduces the
same episode; all randomness lives in the ε-greedy exploration of
:func:`train`, seeded explicitly. The same determinism lets
:class:`MazeEnv` memoize the state reached after each action prefix,
so an interval already integrated in an earlier episode is not
integrated again.
"""

import json
from dataclasses import dataclass

import numpy as np

from .dynamics import QSWParams, build_model, initial_state, propagate, whole_steps
from .maze import MazeGraph, grid_links, toggle_link
from .states import DensityMatrix

# Stored bytes of memoized states above which reset() empties the memo.
MEMO_BUDGET_BYTES = 256 * 2**20


@dataclass(frozen=True)
class Action:
    """Either a no-op or a toggle of one grid-adjacent link."""

    link: tuple[int, int] | None = None

    @classmethod
    def noop(cls) -> "Action":
        return cls(None)

    @classmethod
    def toggle(cls, i: int, j: int) -> "Action":
        if i == j:
            raise ValueError("toggle requires two distinct cells")
        return cls((min(i, j), max(i, j)))

    @property
    def is_noop(self) -> bool:
        return self.link is None

    @property
    def label(self) -> str:
        if self.link is None:
            return "noop"
        return f"toggle:{self.link[0]}-{self.link[1]}"

    @classmethod
    def from_label(cls, label: str) -> "Action":
        if label == "noop":
            return cls.noop()
        if label.startswith("toggle:"):
            i, j = label[len("toggle:"):].split("-")
            return cls.toggle(int(i), int(j))
        raise ValueError(f"unknown action label {label!r}")


@dataclass(frozen=True, eq=False)
class EpisodeRecord:
    """Actions, per-step rewards, and the resulting escape probability."""

    actions: tuple[Action, ...]
    rewards: np.ndarray
    final_p_sink: float


class MazeEnv:
    """Gym-style environment over one maze and one parameter set.

    The state after an interval depends only on the actions taken since
    reset(), so the environment keeps an exact memo from that action
    prefix (a tuple of action links, None for a no-op) to the
    post-interval :class:`DensityMatrix` that ``propagate`` validated.
    A step whose prefix is in the memo takes the stored state instead of
    integrating; results are bit-identical either way. reset() empties
    the memo once it holds more than ``MEMO_BUDGET_BYTES``.
    """

    def __init__(self, base_maze: MazeGraph, params: QSWParams, action_period: float, max_actions: int):
        if max_actions < 1:
            raise ValueError("max_actions must be >= 1")
        if action_period <= 0:
            raise ValueError("action_period must be positive")
        steps_per_interval = whole_steps(action_period, params.dt, "action_period")
        if max_actions * steps_per_interval > params.n_steps:
            raise ValueError("max_actions * action_period must not exceed t_final")
        self.base_maze = base_maze
        self.params = params
        self.action_period = action_period
        self.max_actions = max_actions
        self.steps_per_interval = steps_per_interval
        # Built before grid_links, so a maze too large to model fails before its links are listed.
        self._base_model = build_model(base_maze, params)
        self._state0 = initial_state(self._base_model)
        self.action_space: tuple[Action, ...] = (Action.noop(),) + tuple(
            Action.toggle(i, j) for i, j in grid_links(base_maze.width, base_maze.height)
        )
        self._legal_links = frozenset(a.link for a in self.action_space if not a.is_noop)
        self._memo: dict[tuple, DensityMatrix] = {}
        self._memo_bytes = 0
        self._maze = None
        self._model = None  # None while a toggle has left it stale
        self._state = None
        self._prefix: tuple = ()  # action links since reset(); its length is the step index
        self._done = True

    def reset(self) -> DensityMatrix:
        """Start a fresh episode and return the entrance state; the environment is deterministic."""
        if self._memo_bytes > MEMO_BUDGET_BYTES:
            self._memo.clear()
            self._memo_bytes = 0
        self._maze = self.base_maze
        self._model = self._base_model
        self._state = self._state0
        self._prefix = ()
        self._done = False
        return self._state

    @property
    def done(self) -> bool:
        return self._done

    def state_key(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(step index, current edge set): the tabular agent's state."""
        return (len(self._prefix), self._maze.edges)

    def check_policy(self, policy: "Policy") -> None:
        """Reject a policy table with a key this environment can never reach.

        A reachable key's step lies below max_actions, its edges (and its
        action's link) are grid links of this maze, and at step 0 its
        edges are exactly the maze's.
        """
        for key, action in policy.table.items():
            step, edges = key
            field = f"policy[{Policy._key_str(key)!r}]"
            if not 0 <= step < self.max_actions:
                raise ValueError(f"{field}: step {step} is outside 0..{self.max_actions - 1}")
            links = edges if action.is_noop else edges + (action.link,)
            for i, j in links:
                if (i, j) not in self._legal_links:
                    raise ValueError(f"{field}: {i}-{j} is not a grid link of this maze")
            if step == 0 and edges != self.base_maze.edges:
                raise ValueError(f"{field}: step-0 edge set is not this maze's")

    def current_p_sink(self) -> float:
        return float(self._state.matrix[-1, -1].real)

    def step(self, action: Action) -> tuple[DensityMatrix, float, bool]:
        """Apply one action, integrate one interval, return (state, sink gain, done).

        The state is the one ``propagate`` validated (the memo's on a hit).
        The last action's interval runs on to the horizon. Nothing is
        committed unless the action is legal and the integration succeeds.
        """
        if self._done:
            raise ValueError("episode is over; call reset()")
        maze, model = self._maze, self._model
        if not action.is_noop:
            if action.link not in self._legal_links:
                raise ValueError(f"illegal action {action.label}")
            maze = toggle_link(maze, *action.link)
            model = None
        prefix = self._prefix + (action.link,)
        done = len(prefix) == self.max_actions
        state = self._memo.get(prefix)
        if state is None:
            if model is None:
                model = build_model(maze, self.params)
            first = len(self._prefix) * self.steps_per_interval
            n_steps = self.params.n_steps - first if done else self.steps_per_interval
            state = propagate(self._state, model, n_steps, first_step=first)
            self._memo[prefix] = state
            self._memo_bytes += state.matrix.nbytes
        before = self.current_p_sink()
        self._maze, self._model, self._state = maze, model, state
        self._prefix = prefix
        self._done = done
        return state, self.current_p_sink() - before, done


class Policy:
    """Greedy action table keyed by environment state; no-op by default."""

    def __init__(self, table: dict | None = None, config: dict | None = None):
        self.table = dict(table or {})
        self.config = dict(config or {})

    @classmethod
    def noop(cls) -> "Policy":
        return cls()

    def action_for(self, state_key) -> Action:
        return self.table.get(state_key, Action.noop())

    @staticmethod
    def _key_str(state_key) -> str:
        step, edges = state_key
        return f"{step}|" + "+".join(f"{i}-{j}" for i, j in edges)

    @staticmethod
    def _key_from_str(text: str):
        step, _, edges = text.partition("|")
        pairs = tuple(
            tuple(int(v) for v in pair.split("-")) for pair in edges.split("+") if pair
        )
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError("edges must be i-j pairs")
        return (int(step), pairs)

    def to_json(self) -> str:
        """The policy document; a config value that JSON cannot hold (NaN, +-inf) raises ValueError naming its key."""
        for key, value in self.config.items():
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise ValueError(f"config[{key!r}]: {value!r} is not JSON compliant") from None
        doc = {
            "config": self.config,
            "policy": {self._key_str(k): a.label for k, a in self.table.items()},
        }
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Policy":
        """Parse a policy document; malformed input raises ValueError naming the field."""
        doc = json.loads(text)
        entries = doc.get("policy") if isinstance(doc, dict) else None
        if not isinstance(entries, dict):
            raise ValueError("policy: expected an object mapping state keys to action labels")
        config = doc.get("config", {})
        if not isinstance(config, dict):
            raise ValueError("config: expected an object")
        table = {}
        for key, label in entries.items():
            if not isinstance(label, str):
                raise ValueError(f"policy[{key!r}]: action label must be a string")
            try:
                table[cls._key_from_str(key)] = Action.from_label(label)
            except ValueError as exc:
                raise ValueError(f"policy[{key!r}]: {exc}") from exc
        return cls(table, config)


def run_episode(env: MazeEnv, policy: Policy) -> EpisodeRecord:
    """One exploration-free rollout of ``policy``."""
    env.reset()
    actions, rewards = [], []
    done = False
    while not done:
        action = policy.action_for(env.state_key())
        _, reward, done = env.step(action)
        actions.append(action)
        rewards.append(reward)
    return EpisodeRecord(
        actions=tuple(actions),
        rewards=np.array(rewards),
        final_p_sink=env.current_p_sink(),
    )


@dataclass(frozen=True)
class QLearningConfig:
    """Tabular Q-learning hyperparameters.

    ε decays linearly from ``epsilon_start`` to ``epsilon_end`` over the
    first half of training and stays constant afterwards. The horizon
    is finite, so an undiscounted return (discount = 1) is the default.
    ``learning_rate`` lies in (0, 1]; ``discount``, ``epsilon_start``
    and ``epsilon_end`` lie in [0, 1]. Any other value, NaN or an
    infinity included, raises ValueError naming the field.
    """

    learning_rate: float = 0.1
    discount: float = 1.0
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must lie in (0, 1], got {self.learning_rate!r}")
        for name in ("discount", "epsilon_start", "epsilon_end"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True, eq=False)
class LearningCurve:
    """Per-episode rewards and their trailing running average."""

    rewards: np.ndarray
    running_avg: np.ndarray
    window: int


def _running_average(values: np.ndarray, window: int) -> np.ndarray:
    cumulative = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(len(values))
    lo = np.maximum(0, idx - window + 1)
    return (cumulative[1:] - cumulative[lo]) / (idx + 1 - lo)


def train(
    env: MazeEnv,
    config: QLearningConfig,
    episodes: int,
    seed: int,
) -> tuple[Policy, LearningCurve]:
    """ε-greedy tabular Q-learning, deterministic for a fixed seed.

    Greedy ties resolve to the first maximum in action-space order, so
    an untrained table always selects the no-op and the corresponding
    curve reproduces the plain-walker baseline. An episode count whose
    record cannot be allocated raises ValueError naming it and the bytes.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    try:
        rewards = np.empty(episodes)
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"episodes={episodes} is too many: their per-episode record needs {8 * episodes} bytes") from exc
    rng = np.random.default_rng(seed)
    actions = env.action_space
    n_actions = len(actions)
    q: dict = {}
    half = max(1, episodes // 2)
    for episode in range(episodes):
        frac = min(1.0, episode / half)
        epsilon = config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac
        env.reset()
        state = env.state_key()
        total = 0.0
        done = False
        while not done:
            q_state = q.setdefault(state, np.zeros(n_actions))
            if epsilon > 0.0 and rng.random() < epsilon:
                idx = int(rng.integers(n_actions))
            else:
                idx = int(np.argmax(q_state))
            _, reward, done = env.step(actions[idx])
            next_state = env.state_key()
            future = 0.0
            if not done and next_state in q:
                future = float(np.max(q[next_state]))
            target = reward + config.discount * future
            q_state[idx] += config.learning_rate * (target - q_state[idx])
            state = next_state
            total += reward
        rewards[episode] = total
    policy = Policy({s: actions[int(np.argmax(qv))] for s, qv in q.items()})
    window = min(100, episodes)
    curve = LearningCurve(
        rewards=rewards,
        running_avg=_running_average(rewards, window),
        window=window,
    )
    return policy, curve


def evaluate(env: MazeEnv, policy: Policy) -> float:
    """Final escape probability of one greedy rollout.

    The environment is deterministic, so one rollout is the exact value.
    """
    return float(run_episode(env, policy).final_p_sink)


def write_curve_csv(curve: LearningCurve, fh) -> None:
    """Write `episode,reward,running_avg_100` rows to the text stream ``fh``."""
    fh.write("episode,reward,running_avg_100\n")
    for i, (r, avg) in enumerate(zip(curve.rewards, curve.running_avg)):
        fh.write(f"{i},{float(r)!r},{float(avg)!r}\n")
