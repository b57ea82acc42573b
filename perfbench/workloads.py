"""The benchmark workloads, driven through ``qmlkit.cli.main``.

Each workload turns the workload seed into its inputs in ``setup`` (the
program only ever sees the generated files) and then runs *rounds*. A
round is the smallest unit whose op mix is the same every time, so a
run made of whole rounds measures the same mix on every seed. Each op
carries its wall time and the result of its correctness check, made
outside the timed region against the independent references in
``reference.py``.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from spans import Patches

from qmlkit import cli, dynamics, embedding, maze, rlmaze


def derive(*keys) -> int:
    """A 31-bit seed determined by ``keys`` and nothing else."""
    digest = hashlib.sha256(repr(keys).encode()).digest()
    return int.from_bytes(digest[:4], "big") % (1 << 31)


@dataclass
class Round:
    op_times: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # one entry per op: None or a reason
    cli_time: float = 0.0
    outputs: dict = field(default_factory=dict)  # file or stream name -> bytes, for the determinism guard
    notes: dict = field(default_factory=dict)

    def add(self, duration: float, failure):
        self.op_times.append(duration)
        self.failures.append(failure)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, on_op_start=lambda: None):
        self.seed = seed
        self.dir = workdir
        self.on_op_start = on_op_start
        self.patches = Patches()
        self.tracer = None  # set by the worker for traced rounds; wraps CLI calls only, never checks

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def cli(self, rnd: Round, argv: list, outputs: list) -> tuple[int | str, str, float]:
        """Run one CLI command in-process; return (exit code or error, stdout, seconds)."""
        stdout = io.StringIO()
        if self.tracer is not None:
            self.tracer.install()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # an op that raises is a failed op, the run goes on
            code = f"{type(exc).__name__}: {exc}"
        finally:
            duration = perf_counter() - start
            if self.tracer is not None:
                self.tracer.uninstall()
        rnd.cli_time += duration
        rnd.outputs[f"{argv[0]}:stdout"] = stdout.getvalue().encode()
        for name in outputs:
            with contextlib.suppress(FileNotFoundError):
                rnd.outputs[name] = Path(name).read_bytes()
                if self.tracer is not None:
                    self.tracer.counts["cli.write.bytes"] += len(rnd.outputs[name])
        return code, stdout.getvalue(), duration

    def close(self):
        self.patches.undo()


def checked(check, *args) -> str | None:
    """Run a correctness check; a check that cannot even parse the output fails the op."""
    try:
        return check(*args)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, OSError) as exc:
        return f"check failed: {type(exc).__name__}: {exc}"


def _read_csv(path: str) -> list[list[float]]:
    """Numeric rows of a qmlkit CSV output, without its comment and column-name lines."""
    with open(path, encoding="utf-8") as fh:
        return [[float(v) for v in line.split(",")] for line in fh if not (line[:1] == "#" or line[:1].isalpha())]


def _walk_flags(p, gamma, dt, t_final):
    return ["--p", p, "--gamma", gamma, "--dt", dt, "--t-final", t_final]


# --- rl-train-6x6 -------------------------------------------------------------


class RLTrain(Workload):
    """rl-train then rl-eval on the criterion-5 setup; an op is one episode."""

    name = "rl-train-6x6"
    P, GAMMA, DT, T_FINAL, PERIOD, K = 0.8, 1.0, 0.1, 100.0, 10.0, 8
    EPISODES = 40

    def setup(self):
        self.maze_path = self.path("maze.json")
        m = maze.generate_perfect_maze(6, 6, seed=derive(self.seed, "maze"))
        Path(self.maze_path).write_text(maze.serialize(m), encoding="utf-8")
        self.maze_doc = json.loads(Path(self.maze_path).read_text(encoding="utf-8"))
        self._baseline_ref = None
        self._episodes = []
        self._install_episode_clock()

    def _install_episode_clock(self):
        """Time every episode from reset() to the step that ends it."""
        episodes = self._episodes
        on_op_start = self.on_op_start
        reset, step = rlmaze.MazeEnv.reset, rlmaze.MazeEnv.step

        def timed_reset(env, *args, **kwargs):
            on_op_start()
            episodes.append([perf_counter(), None, None])
            return reset(env, *args, **kwargs)

        def timed_step(env, action):
            result = step(env, action)
            obs, _, done = result
            if done:
                episodes[-1][1] = perf_counter()
                episodes[-1][2] = float(obs.populations[-1])
            return result

        self.patches.replace_attr(rlmaze.MazeEnv, "reset", timed_reset)
        self.patches.replace_attr(rlmaze.MazeEnv, "step", timed_step)

    def _flags(self):
        return ["--maze", self.maze_path, *_walk_flags(self.P, self.GAMMA, self.DT, self.T_FINAL),
                "--action-period", self.PERIOD, "--max-actions", self.K]

    def _take_episodes(self, rnd: Round, code, check):
        """Record the episodes of one CLI call; ``check(i, final_p_sink)`` -> failure or None."""
        episodes = list(self._episodes)
        self._episodes.clear()
        if code != 0 or not episodes:
            for ep in episodes or [[0.0, 0.0, None]]:
                rnd.add((ep[1] or ep[0]) - ep[0], f"exit {code}")
            return
        for i, (start, end, p_sink) in enumerate(episodes):
            failure = "episode did not finish" if end is None else checked(check, i, p_sink)
            rnd.add((end or start) - start, failure)

    def baseline_reference(self) -> float:
        """No-op escape probability from a standalone ``evolve`` run."""
        if self._baseline_ref is None:
            m = maze.deserialize(Path(self.maze_path).read_text(encoding="utf-8"))
            params = dynamics.QSWParams(p=self.P, gamma=self.GAMMA, dt=self.DT, t_final=self.T_FINAL)
            model = dynamics.build_model(m, params)
            self._baseline_ref = dynamics.evolve(dynamics.initial_state(model), model).final_p_sink()
        return self._baseline_ref

    def round(self, index: int) -> Round:
        rnd = Round()
        curve, policy, report = self.path("curve.csv"), self.path("policy.json"), self.path("eval.txt")
        train_seed = derive(self.seed, "train", index)
        code, _, _ = self.cli(rnd, ["rl-train", *self._flags(), "--episodes", self.EPISODES, "--seed", train_seed,
                                    "-o", curve, "--policy-out", policy], [curve, policy])
        rewards = []
        if code == 0:
            with contextlib.suppress(OSError, ValueError, IndexError):
                rewards = [row[1] for row in _read_csv(curve)]

        def telescopes(i, p_sink):
            if len(rewards) != self.EPISODES:
                return f"curve has {len(rewards)} rows, expected {self.EPISODES}"
            if not 0.0 <= p_sink <= 1.0 or abs(rewards[i] - p_sink) > 1e-12:
                return f"episode {i}: reward {rewards[i]!r} does not telescope to p_sink {p_sink!r}"
            return None

        self._take_episodes(rnd, code, telescopes)

        code, out, _ = self.cli(rnd, ["rl-eval", *self._flags(), "--policy", policy, "-o", report], [report])
        checks = checked(self.check_eval, rnd, out, policy) if code == 0 else None
        if isinstance(checks, str):
            checks = [checks, checks]
        self._take_episodes(rnd, code, lambda i, p_sink: checks[i] if i < len(checks) else "unexpected episode")
        return rnd

    def check_eval(self, rnd: Round, out: str, policy_path: str) -> list:
        """Failures of the baseline and the policy episode of rl-eval."""
        values = dict(line.split("=", 1) for line in out.split())
        baseline, trained = float(values["baseline_p_sink"]), float(values["policy_p_sink"])
        rnd.notes = {"evaluations": 1, "policy_beats_baseline": int(trained >= baseline)}
        replay = reference.replay_policy(
            self.maze_doc, json.loads(Path(policy_path).read_text(encoding="utf-8")),
            self.P, self.GAMMA, self.DT, self.T_FINAL, self.PERIOD, self.K,
        )
        ref = self.baseline_reference()
        return [
            None if abs(baseline - ref) <= 1e-9 else f"baseline {baseline!r} vs standalone evolve {ref!r}",
            None if abs(trained - replay) <= 1e-9 else f"policy {trained!r} vs independent replay {replay!r}",
        ]


# --- embed-gram-sampled -------------------------------------------------------------


def _write_dataset(path: str, dataset):
    Path(path).write_text(embedding.dataset_to_json(dataset), encoding="utf-8")


class EmbedGramSampled(Workload):
    """embed-gram --mode sampled, n = 200, 100 shots, fresh master seed; an op is one Gram matrix."""

    name = "embed-gram-sampled"
    N_PER_CLASS, SHOTS = 100, 100
    MIN_INSIDE = 0.97

    def setup(self):
        self.data_path, self.model_path = self.path("points.json"), self.path("model.json")
        self.points = embedding.synth_dataset(self.N_PER_CLASS, derive(self.seed, "data"))
        _write_dataset(self.data_path, self.points)
        rnd = Round()
        code, _, _ = self.cli(rnd, ["embed-train", "--n-per-class", 20, "--data-seed", derive(self.seed, "model-data"),
                                 "--seed", derive(self.seed, "model-init"), "-o", self.path("model-training.csv"),
                                 "--model-out", self.model_path], [])
        if code != 0:
            raise RuntimeError(f"embed-train for the Gram model exited {code}")
        self._intervals = None

    def intervals(self):
        """Accepted sampled values per upper-triangle entry: exact 99 % binomial interval."""
        if self._intervals is None:
            thetas = json.loads(Path(self.model_path).read_text(encoding="utf-8"))["thetas"]
            states = reference.embed_states(self.points.points, thetas)
            iu, ju = np.triu_indices(len(self.points))
            exact = np.minimum(1.0, reference.overlaps(states, states)[iu, ju])
            lo, hi = np.empty(iu.size), np.empty(iu.size)
            for s in range(0, iu.size, 2000):  # chunked to keep the check's memory small
                lo[s:s + 2000], hi[s:s + 2000] = reference.binomial_interval(self.SHOTS, 0.5 * (1.0 + exact[s:s + 2000]))
            self._intervals = (iu, ju, np.maximum(0.0, 2.0 * lo / self.SHOTS - 1.0), 2.0 * hi / self.SHOTS - 1.0)
        return self._intervals

    def check(self, gram_path: str) -> str | None:
        g = np.array(_read_csv(gram_path))
        n = len(self.points)
        if g.shape != (n, n):
            return f"Gram shape {g.shape}, expected {(n, n)}"
        if not np.array_equal(g, g.T) or g.min() < 0.0 or g.max() > 1.0:
            return "Gram matrix not symmetric with entries in [0, 1]"
        iu, ju, est_lo, est_hi = self.intervals()
        values = g[iu, ju]
        inside = float(np.mean((est_lo <= values) & (values <= est_hi)))
        return None if inside >= self.MIN_INSIDE else f"only {inside:.1%} of entries inside the 99 % interval"

    def round(self, index: int) -> Round:
        rnd = Round()
        out = self.path("gram.csv")
        self.on_op_start()
        code, _, duration = self.cli(rnd, ["embed-gram", "--dataset", self.data_path, "--model", self.model_path, "--mode", "sampled",
                                           "--shots", self.SHOTS, "--seed", derive(self.seed, "gram", index), "-o", out], [out])
        rnd.add(duration, f"exit {code}" if code != 0 else checked(self.check, out))
        return rnd


WORKLOADS = {w.name: w for w in (RLTrain, EmbedGramSampled)}
