"""Command-line experiment runner.

One binary, one subcommand per experiment. Every run is a deterministic
function of its flags and referenced files: randomness enters only
through explicit --seed flags, and text outputs start with a ``# config:``
line recording the resolved configuration. This is the one module that
opens files: each through :func:`_file`, under the flag that names it,
so the library's writers take an open stream. Exit codes: 0 success, 2
invalid configuration or input (a file that cannot be read or written
included), 3 numerical failure during integration.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import sys

from . import embedding, rlmaze
from .dynamics import (
    IntegrationError,
    QSWParams,
    SAMPLE_EVERY,
    build_model,
    evolve,
    generator_matrices,
    initial_state,
    write_states_json,
    write_trajectory_csv,
)
from .maze import MazeFormatError, deserialize, generate_perfect_maze, serialize


# dests of the flags that set up a walk, of those that add its agent's environment, and of the Q-learning flags
WALK_DESTS = ("maze", "p", "gamma", "dt", "t_final")
ENV_DESTS = (*WALK_DESTS, "action_period", "max_actions")
LEARNING_DESTS = tuple(field.name for field in dataclasses.fields(rlmaze.QLearningConfig))


def _seed(text: str) -> int:
    """argparse type for seed flags: a non-negative integer."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


@contextlib.contextmanager
def _file(args, dest: str, mode: str = "w", config: dict | None = None):
    """The file that ``--<dest>`` names, open as UTF-8 text.

    A file opened to write has ``\\n`` line ends and, given a config,
    starts with its ``# config: k=v ...`` line, keys sorted. Any OSError
    from opening, reading, writing or closing the file raises ValueError
    naming the flag, the path and the reason.
    """
    path = getattr(args, dest)
    try:
        with open(path, mode, encoding="utf-8", newline="\n" if mode == "w" else None) as fh:
            if config:
                fh.write("# config: " + " ".join(f"{k}={config[k]}" for k in sorted(config)) + "\n")
            yield fh
    except OSError as exc:
        raise ValueError(f"--{dest.replace('_', '-')} {path!r}: {exc.strerror}") from exc


def _load(args, dest: str, parse):
    """``parse`` of the file that ``--<dest>`` names; one that is not JSON raises ValueError naming the flag and the file."""
    try:
        with _file(args, dest, "r") as fh:
            return parse(fh.read())
    except ValueError as exc:
        cause = exc.__cause__ if isinstance(exc, MazeFormatError) else exc  # deserialize wraps the decoder's error
        if isinstance(cause, (json.JSONDecodeError, UnicodeDecodeError)):
            raise ValueError(f"--{dest} {getattr(args, dest)!r} is not valid JSON: {cause}") from exc
        raise


def _config(args, dests) -> dict:
    """The values of the flags named by ``dests``, in that order."""
    return {dest: getattr(args, dest) for dest in dests}


def _params_from(args) -> QSWParams:
    return QSWParams(p=args.p, gamma=args.gamma, dt=args.dt, t_final=args.t_final)


def _add_params_flags(parser):
    parser.add_argument("--p", type=float, required=True, help="classical/quantum mixing in [0, 1]")
    parser.add_argument("--gamma", type=float, default=QSWParams.gamma, help="sink rate (default %(default)s)")
    parser.add_argument("--dt", type=float, default=QSWParams.dt, help="integrator step (default %(default)s)")
    parser.add_argument("--t-final", type=float, default=QSWParams.t_final, help="horizon (default %(default)s)")


def _add_dataset_flags(parser, n_per_class: int) -> dict:
    """--dataset and the synthetic-data flags it overrides; returns those flags' defaults, which their help prints."""
    defaults = {"n_per_class": n_per_class, "data_seed": 0}
    parser.add_argument("--dataset", default=None, help="dataset JSON (default: synthesize)")
    parser.add_argument("--n-per-class", type=int, default=None, help=f"synthetic points per class (default {defaults['n_per_class']})")
    parser.add_argument("--data-seed", type=_seed, default=None, help=f"synthetic data seed (default {defaults['data_seed']})")
    return defaults


def _add_env_flags(parser):
    parser.add_argument("--action-period", type=float, default=1.0, help="time between actions")
    parser.add_argument("--max-actions", type=int, default=8, help="actions per episode")


def cmd_maze_gen(args) -> int:
    if min(args.width, args.height) >= 2:  # a maze too large to model is refused before it is carved
        generator_matrices(args.width, args.height)
    maze = generate_perfect_maze(args.width, args.height, args.seed, exit=args.exit)
    with _file(args, "output") as fh:
        fh.write(serialize(maze))
    return 0


def cmd_qsw_run(args) -> int:
    maze = _load(args, "maze", deserialize)
    params = _params_from(args)
    model = build_model(maze, params)
    traj = evolve(initial_state(model), model, sample_every=args.sample_every)
    config = _config(args, (*WALK_DESTS, "sample_every"))
    with _file(args, "output", config=config) as fh:
        write_trajectory_csv(traj, fh)
    if args.states_out:
        with _file(args, "states_out") as fh:
            write_states_json(traj, fh, config)
    return 0


def _make_env(args) -> rlmaze.MazeEnv:
    maze = _load(args, "maze", deserialize)
    params = _params_from(args)
    return rlmaze.MazeEnv(maze, params, args.action_period, args.max_actions)


def cmd_rl_train(args) -> int:
    env = _make_env(args)
    config = rlmaze.QLearningConfig(**_config(args, LEARNING_DESTS))
    policy, curve = rlmaze.train(env, config, args.episodes, args.seed)
    file_config = _config(args, (*ENV_DESTS, "episodes", "seed", *LEARNING_DESTS))
    with _file(args, "output", config=file_config) as fh:
        rlmaze.write_curve_csv(curve, fh)
    if args.policy_out:
        policy.config = file_config
        with _file(args, "policy_out") as fh:
            fh.write(policy.to_json())
    return 0


def cmd_rl_eval(args) -> int:
    env = _make_env(args)
    if args.policy:
        policy = _load(args, "policy", rlmaze.Policy.from_json)
        for name, value in _config(args, ENV_DESTS).items():
            if name != "maze" and name not in policy.config:
                raise ValueError(f"config.{name}: missing")
            if name != "maze" and policy.config[name] != value:
                raise ValueError(f"config.{name}: policy was trained with {policy.config[name]!r}, this run uses {value!r}")
        env.check_policy(policy)
    else:
        policy = rlmaze.Policy.noop()
    baseline = rlmaze.evaluate(env, rlmaze.Policy.noop())
    trained = rlmaze.evaluate(env, policy)
    lines = [f"baseline_p_sink={baseline!r}", f"policy_p_sink={trained!r}"]
    print("\n".join(lines))
    if args.output:
        file_config = _config(args, ENV_DESTS) | {"policy": args.policy or ""}
        with _file(args, "output", config=file_config) as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _resolve(args) -> None:
    """Give each flag that a file overrides its default; refuse one that was set next to that file's flag."""
    for source, defaults in args.file_overrides.items():
        for dest, default in defaults.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif getattr(args, source) is not None:
                raise ValueError(f"--{dest.replace('_', '-')} does not apply with --{source}")


def _dataset_from(args) -> embedding.LabeledDataset1D:
    if args.dataset:
        return _load(args, "dataset", embedding.dataset_from_json)
    return embedding.synth_dataset(args.n_per_class, args.data_seed)


def _dataset_label(args) -> str:
    return args.dataset or f"synthetic(n_per_class={args.n_per_class}, data_seed={args.data_seed})"


def cmd_embed_train(args) -> int:
    _resolve(args)
    dataset = _dataset_from(args)
    config = embedding.TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    model, curve, theta_log = embedding.train_embedding(dataset, config)
    file_config = {
        "dataset": _dataset_label(args),
        "lr": args.lr,
        "epochs": args.epochs,
        "seed": args.seed,
    }
    with _file(args, "output", config=file_config) as fh:
        embedding.write_training_log(curve, theta_log, fh)
    if args.model_out:
        doc = {"config": file_config, "thetas": list(model.thetas)}
        with _file(args, "model_out") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2, allow_nan=False)
            fh.write("\n")
    if args.dataset_out:
        with _file(args, "dataset_out") as fh:
            fh.write(embedding.dataset_to_json(dataset))
    return 0


def cmd_embed_gram(args) -> int:
    sampled = args.mode == "sampled"
    if sampled and args.seed is None:
        raise ValueError("--mode sampled requires --seed")
    for flag, value in (("--seed", args.seed), ("--shots", args.shots)):
        if not sampled and value is not None:
            raise ValueError(f"{flag} applies only to --mode sampled")
    shots = embedding.SAMPLED_SHOTS if args.shots is None else args.shots
    _resolve(args)
    dataset = _dataset_from(args)
    if args.model:
        model = _load(args, "model", embedding.model_from_json)
    else:
        model = embedding.EmbeddingModel(tuple(args.thetas))
    g = embedding.gram(dataset, model, mode=args.mode, shots=args.shots, seed=args.seed)
    file_config = {
        "dataset": _dataset_label(args),
        "thetas": ",".join(repr(t) for t in model.thetas),
        "mode": args.mode,
        "shots": shots if sampled else "n/a",
        "seed": args.seed if sampled else "n/a",
    }
    with _file(args, "output", config=file_config) as fh:
        embedding.write_gram_csv(g, fh)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qmlkit",
        description="Quantum walker maze control and embedding classification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("maze-gen", help="generate a perfect maze file")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--exit", type=int, default=None, help="exit node (default: upper-right cell)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_maze_gen)

    p = sub.add_parser("qsw-run", help="evolve a walker on a maze, write the trajectory")
    p.add_argument("--maze", required=True)
    _add_params_flags(p)
    p.add_argument("--sample-every", type=int, default=SAMPLE_EVERY, help="steps between snapshots")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--states-out", default=None, help="optional JSON dump of full snapshots")
    p.set_defaults(func=cmd_qsw_run)

    p = sub.add_parser("rl-train", help="train a topology-control agent")
    p.add_argument("--maze", required=True)
    _add_params_flags(p)
    _add_env_flags(p)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    for dest in LEARNING_DESTS:
        p.add_argument("--" + dest.replace("_", "-"), type=float, default=getattr(rlmaze.QLearningConfig, dest))
    p.add_argument("-o", "--output", required=True, help="learning-curve CSV")
    p.add_argument("--policy-out", default=None, help="trained policy JSON")
    p.set_defaults(func=cmd_rl_train)

    p = sub.add_parser("rl-eval", help="evaluate a policy against the no-op baseline")
    p.add_argument("--maze", required=True)
    _add_params_flags(p)
    _add_env_flags(p)
    p.add_argument("--policy", default=None, help="policy JSON (default: no-op baseline)")
    p.add_argument("-o", "--output", default=None, help="optional report file")
    p.set_defaults(func=cmd_rl_eval)

    p = sub.add_parser("embed-train", help="train the data-uploading embedding")
    data = _add_dataset_flags(p, n_per_class=20)
    p.add_argument("--lr", type=float, default=embedding.TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=embedding.TrainConfig.epochs)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("-o", "--output", required=True, help="training-log CSV")
    p.add_argument("--model-out", default=None, help="trained angles JSON")
    p.add_argument("--dataset-out", default=None, help="save the dataset that was used")
    p.set_defaults(func=cmd_embed_train, file_overrides={"dataset": data})

    p = sub.add_parser("embed-gram", help="compute a Gram matrix of pairwise overlaps")
    data = _add_dataset_flags(p, n_per_class=5)
    angles = {"thetas": (0.0, 0.0, 0.0)}
    p.add_argument("--model", default=None, help="angles JSON from embed-train")
    shown = " ".join(f"{t:g}" for t in angles["thetas"])
    p.add_argument("--thetas", type=float, nargs=3, default=None, metavar=("T1", "T2", "T3"), help=f"angles (default {shown}); write a negative angle without an exponent (-0.002, not -2e-3), which argparse would read as an option")
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--shots", type=int, default=None, help=f"shots per entry, sampled mode only (default {embedding.SAMPLED_SHOTS})")
    p.add_argument("--seed", type=_seed, default=None, help="master seed, sampled mode only (required there)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_embed_gram, file_overrides={"dataset": data, "model": angles})

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MazeFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failure: {exc}; try a smaller --dt", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
