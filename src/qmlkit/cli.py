"""Command-line experiment runner.

One binary, one subcommand per experiment. Every run is a deterministic
function of its flags and referenced files: randomness enters only
through explicit --seed flags, and output files start with a comment
recording the resolved configuration. Exit codes: 0 success, 2 invalid
configuration or input, 3 numerical failure during integration.
"""

import argparse
import json
import sys

from . import embedding, rlmaze
from .dynamics import (
    IntegrationError,
    QSWParams,
    build_model,
    evolve,
    initial_state,
    write_states_json,
    write_trajectory_csv,
)
from .header import config_header
from .maze import MazeFormatError, deserialize, generate_perfect_maze, serialize


def _load_maze(path):
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


def _params_from(args) -> QSWParams:
    return QSWParams(p=args.p, gamma=args.gamma, dt=args.dt, t_final=args.t_final)


def _add_params_flags(parser):
    parser.add_argument("--p", type=float, required=True, help="classical/quantum mixing in [0, 1]")
    parser.add_argument("--gamma", type=float, default=1.0, help="sink rate (default 1.0)")
    parser.add_argument("--dt", type=float, default=0.005, help="integrator step (default 0.005)")
    parser.add_argument("--t-final", type=float, default=10.0, help="horizon (default 10.0)")


def _add_env_flags(parser):
    parser.add_argument("--action-period", type=float, default=1.0, help="time between actions")
    parser.add_argument("--max-actions", type=int, default=8, help="actions per episode")


def cmd_maze_gen(args) -> int:
    maze = generate_perfect_maze(args.width, args.height, args.seed, exit=args.exit)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize(maze))
    return 0


def cmd_qsw_run(args) -> int:
    maze = _load_maze(args.maze)
    params = _params_from(args)
    model = build_model(maze, params)
    traj = evolve(initial_state(model), model, sample_every=args.sample_every)
    config = {
        "maze": args.maze,
        "p": params.p,
        "gamma": params.gamma,
        "dt": params.dt,
        "t_final": params.t_final,
        "sample_every": args.sample_every,
    }
    write_trajectory_csv(traj, args.output, config)
    if args.states_out:
        write_states_json(traj, args.states_out, config)
    return 0


def _make_env(args) -> rlmaze.MazeEnv:
    maze = _load_maze(args.maze)
    params = _params_from(args)
    return rlmaze.MazeEnv(maze, params, args.action_period, args.max_actions)


def _env_config(args) -> dict:
    return {
        "maze": args.maze,
        "p": args.p,
        "gamma": args.gamma,
        "dt": args.dt,
        "t_final": args.t_final,
        "action_period": args.action_period,
        "max_actions": args.max_actions,
    }


def cmd_rl_train(args) -> int:
    env = _make_env(args)
    config = rlmaze.QLearningConfig(
        learning_rate=args.learning_rate,
        discount=args.discount,
        epsilon_start=args.epsilon_start,
        epsilon_end=args.epsilon_end,
    )
    policy, curve = rlmaze.train(env, config, args.episodes, args.seed)
    file_config = _env_config(args) | {
        "episodes": args.episodes,
        "seed": args.seed,
        "learning_rate": args.learning_rate,
        "discount": args.discount,
        "epsilon_start": args.epsilon_start,
        "epsilon_end": args.epsilon_end,
    }
    rlmaze.write_curve_csv(curve, args.output, file_config)
    if args.policy_out:
        policy.config = file_config
        with open(args.policy_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(policy.to_json())
    return 0


def cmd_rl_eval(args) -> int:
    env = _make_env(args)
    if args.policy:
        with open(args.policy, "r", encoding="utf-8") as fh:
            policy = rlmaze.Policy.from_json(fh.read())
        for name, value in _env_config(args).items():
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
        file_config = _env_config(args) | {"policy": args.policy or ""}
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(config_header(file_config))
            fh.write("\n".join(lines) + "\n")
    return 0


def _dataset_from(args) -> embedding.LabeledDataset1D:
    if args.dataset:
        with open(args.dataset, "r", encoding="utf-8") as fh:
            return embedding.dataset_from_json(fh.read())
    return embedding.synth_dataset(args.n_per_class, args.data_seed)


def _dataset_label(args) -> str:
    return args.dataset or f"synthetic(n_per_class={args.n_per_class}, data_seed={args.data_seed})"


def cmd_embed_train(args) -> int:
    dataset = _dataset_from(args)
    config = embedding.TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    model, curve, theta_log = embedding.train_embedding(dataset, config)
    file_config = {
        "dataset": _dataset_label(args),
        "lr": args.lr,
        "epochs": args.epochs,
        "seed": args.seed,
    }
    embedding.write_training_log(curve, theta_log, args.output, file_config)
    if args.model_out:
        doc = {"config": file_config, "thetas": list(model.thetas)}
        with open(args.model_out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.dataset_out:
        with open(args.dataset_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(embedding.dataset_to_json(dataset))
    return 0


def cmd_embed_gram(args) -> int:
    dataset = _dataset_from(args)
    if args.model:
        with open(args.model, "r", encoding="utf-8") as fh:
            model = embedding.model_from_json(fh.read())
    else:
        model = embedding.EmbeddingModel(tuple(args.thetas))
    if args.mode == "sampled" and args.seed is None:
        raise ValueError("--mode sampled requires --seed")
    g = embedding.gram(dataset, model, mode=args.mode, shots=args.shots, seed=args.seed)
    file_config = {
        "dataset": _dataset_label(args),
        "thetas": ",".join(repr(t) for t in model.thetas),
        "mode": args.mode,
        "shots": args.shots if args.mode == "sampled" else "n/a",
        "seed": args.seed if args.mode == "sampled" else "n/a",
    }
    embedding.write_gram_csv(g, args.output, file_config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmlkit",
        description="Quantum walker maze control and embedding classification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("maze-gen", help="generate a perfect maze file")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--exit", type=int, default=None, help="exit node (default: upper-right cell)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_maze_gen)

    p = sub.add_parser("qsw-run", help="evolve a walker on a maze, write the trajectory")
    p.add_argument("--maze", required=True)
    _add_params_flags(p)
    p.add_argument("--sample-every", type=int, default=10, help="steps between snapshots")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--states-out", default=None, help="optional JSON dump of full snapshots")
    p.set_defaults(func=cmd_qsw_run)

    p = sub.add_parser("rl-train", help="train a topology-control agent")
    p.add_argument("--maze", required=True)
    _add_params_flags(p)
    _add_env_flags(p)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--discount", type=float, default=1.0)
    p.add_argument("--epsilon-start", type=float, default=1.0)
    p.add_argument("--epsilon-end", type=float, default=0.05)
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
    p.add_argument("--dataset", default=None, help="dataset JSON (default: synthesize)")
    p.add_argument("--n-per-class", type=int, default=20)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True, help="training-log CSV")
    p.add_argument("--model-out", default=None, help="trained angles JSON")
    p.add_argument("--dataset-out", default=None, help="save the dataset that was used")
    p.set_defaults(func=cmd_embed_train)

    p = sub.add_parser("embed-gram", help="compute a Gram matrix of pairwise overlaps")
    p.add_argument("--dataset", default=None, help="dataset JSON (default: synthesize)")
    p.add_argument("--n-per-class", type=int, default=5)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--model", default=None, help="angles JSON from embed-train")
    p.add_argument("--thetas", type=float, nargs=3, default=(0.0, 0.0, 0.0), metavar=("T1", "T2", "T3"))
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--shots", type=int, default=100)
    p.add_argument("--seed", type=int, default=None, help="master seed for sampled mode")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_embed_gram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MazeFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
