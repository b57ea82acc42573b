"""Spans and counters wrapped around calls into qmlkit, from outside.

``Tracer.install`` replaces functions and methods of the loaded qmlkit
modules with timing or counting wrappers, and ``uninstall`` puts the
originals back, so untraced rounds run the program exactly as shipped.
A span records (id, name, start, end, parent id, op id); a layer's self
time is its span's duration minus the time covered by its direct child
spans. Counters are exact counts of calls or of work items.
"""

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MAX_KEPT_SPANS = 50_000


class Patches:
    """Replacements of attributes that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace_function(self, original, wrapper):
        """Rebind ``original`` to ``wrapper`` in every qmlkit module that imported it."""
        for name, module in list(sys.modules.items()):
            if name != "qmlkit" and not name.startswith("qmlkit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace_attr(module, attr, wrapper)

    def replace_attr(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def undo(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _steps_cost(dim: int, p: float) -> tuple[int, int]:
    """Computed (flops, bytes) of one RK4 step of the dense generator.

    Per rhs call: two complex d x d matmuls when p < 1 (8 d^3 real flops
    each, reading two and writing one matrix), the gain/damping terms
    when p > 0 (about 16 d^2 flops over six matrix passes); the RK4
    combination adds about 20 d^2 flops over ten passes. A matrix pass
    moves 16 d^2 bytes. Cache effects are ignored: these are computed,
    not measured.
    """
    d2 = dim * dim
    flops_rhs = (16 * d2 * dim if p < 1.0 else 0) + (16 * d2 if p > 0.0 else 0)
    passes_rhs = (6 if p < 1.0 else 0) + (6 if p > 0.0 else 0)
    return 4 * flops_rhs + 20 * d2, (4 * passes_rhs + 10) * 16 * d2


class Tracer:
    def __init__(self):
        self.op_id = 0
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self.dropped = 0
        self.prefixes_seen = 0
        self.prefixes_repeated = 0
        self._stack = []
        self._next_id = 0
        self._patches = Patches()
        self._env_prefix = {}
        self._env_seen = {}

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_time[name] += duration - frame[1]
                tracer.counts[name + ".calls"] += 1
                if parent is not None:
                    parent[1] += duration
                if len(tracer.spans) < MAX_KEPT_SPANS:
                    tracer.spans.append(
                        (span_id, name, start, end, None if parent is None else parent[0], tracer.op_id)
                    )
                else:
                    tracer.dropped += 1

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        # updated=(): fn may be a class, whose namespace must not be copied
        return functools.update_wrapper(wrapper, fn, updated=())

    # -- hooks with arguments ---------------------------------------------------

    def _before_propagate(self, rho, model, n_steps, *args, **kwargs):
        flops, nbytes = _steps_cost(model.dim, model.params.p)
        self.counts["dynamics.rk4_steps"] += n_steps
        self.counts["dynamics.flops_computed"] += n_steps * flops
        self.counts["dynamics.bytes_computed"] += n_steps * nbytes

    def _before_evolve(self, rho0, model, *args, **kwargs):
        self.counts["dynamics.rk4_steps_nominal"] += model.params.n_steps

    def _before_reset(self, env, *args, **kwargs):
        self.counts["dynamics.rk4_steps_nominal"] += env.params.n_steps
        self._env_prefix[id(env)] = ()

    def _before_step(self, env, action):
        prefix = self._env_prefix.get(id(env), ()) + (action.label,)
        self._env_prefix[id(env)] = prefix
        seen = self._env_seen.setdefault(id(env), set())
        self.prefixes_seen += 1
        if prefix in seen:
            self.prefixes_repeated += 1
        else:
            seen.add(prefix)
            self.counts["rlmaze.distinct_prefixes"] += 1

    # -- installation -------------------------------------------------------------

    def install(self):
        from qmlkit import cli, dynamics, embedding, maze, rlmaze, states

        p = self._patches
        self._env_prefix.clear()
        self._env_seen.clear()

        def function(module, attr, name, before=None):
            original = getattr(module, attr, None)
            if original is not None:
                p.replace_function(original, self._span(name, original, before))

        def method(cls, attr, name, before=None):
            original = cls.__dict__.get(attr)
            if original is not None:
                p.replace_attr(cls, attr, self._span(name, original, before))

        function(maze, "deserialize", "maze.deserialize")
        function(maze, "toggle_link", "maze.toggle_link")
        edges = maze.MazeGraph.__dict__.get("edges")
        if edges is not None:
            p.replace_attr(maze.MazeGraph, "edges", self._counted("maze.edges.calls", edges))

        function(dynamics, "build_model", "dynamics.build_model")
        function(dynamics, "propagate", "dynamics.propagate", self._before_propagate)
        function(dynamics, "evolve", "dynamics.evolve", self._before_evolve)
        rhs = getattr(dynamics, "_rhs", None)
        if rhs is not None:
            p.replace_function(rhs, self._counted("dynamics.rhs_calls", rhs))

        method(states.DensityMatrix, "__post_init__", "states.DensityMatrix")
        method(states.PureState, "__post_init__", "states.PureState")

        method(rlmaze.MazeEnv, "reset", "rlmaze.reset", self._before_reset)
        method(rlmaze.MazeEnv, "step", "rlmaze.step", self._before_step)
        method(rlmaze.MazeEnv, "state_key", "rlmaze.state_key")
        function(rlmaze, "train", "rlmaze.train")
        function(rlmaze, "evaluate", "rlmaze.evaluate")

        function(embedding, "_embed_batch", "embedding.embed_batch")
        function(embedding, "gradient", "embedding.gradient")
        function(embedding, "loss", "embedding.loss")
        function(embedding, "gram", "embedding.gram")
        function(embedding, "swap_test", "embedding.swap_test")
        function(embedding, "_descent", "embedding.train")
        p.replace_attr(np.random, "SeedSequence", self._counted("embedding.seed_spawns", np.random.SeedSequence))

        for module, attr in (
            (dynamics, "write_trajectory_csv"),
            (dynamics, "write_states_json"),
            (rlmaze, "write_curve_csv"),
            (embedding, "write_training_log"),
            (embedding, "write_gram_csv"),
            (embedding, "dataset_to_json"),
        ):
            function(module, attr, "cli.write")
        method(rlmaze.Policy, "to_json", "cli.write")
        function(cli, "main", "cli.main")

    def uninstall(self):
        self._patches.undo()

    # -- results --------------------------------------------------------------------

    @property
    def recorded(self) -> int:
        return self._next_id

    def self_s(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def breakdown(self) -> list[tuple[str, float]]:
        """(span name, self seconds), largest first."""
        return sorted(self.self_time.items(), key=lambda kv: -kv[1])

    def write(self, path, header: dict):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header | {"spans_kept": len(self.spans), "spans_dropped": self.dropped}) + "\n")
            fh.write('["id","name","start","end","parent","op"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
