"""Fuzz of every subcommand's numeric flags, run in-process through ``cli.main``.

Each case sets one numeric flag, or two distinct ones, to edge values;
every other flag keeps a small valid value (a 3x3 maze, a few steps,
episodes or epochs). The run must exit 0, 2 or 3 with no uncaught
exception and no ``RuntimeWarning``. An exit-2 message must name a drawn
flag or its field, and every JSON file the run writes must parse with a
parser that rejects Infinity and NaN. A count of 10**15 (episodes,
epochs, points, steps or cells) is refused before any work, so every
case runs in well under a second.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmlkit import cli
from qmlkit.maze import generate_perfect_maze, serialize

EDGE_VALUES = ("nan", "inf", "-inf", "0", "-1", "2.5", "1e-320", "1e200", "1e308", str(10**15))

RL_FLAGS = {
    "--p": "0.8", "--gamma": "1.0", "--dt": "0.1", "--t-final": "1.0", "--action-period": "0.5", "--max-actions": "2",
}

# per subcommand: its numeric flags with their valid values, then its other arguments
COMMANDS = {
    "maze-gen": ({"--width": "3", "--height": "3", "--seed": "2", "--exit": "8"}, ["-o", "{dir}/out.json"]),
    "qsw-run": (
        {"--p": "0.8", "--gamma": "1.0", "--dt": "0.1", "--t-final": "1.0", "--sample-every": "5"},
        ["--maze", "{dir}/maze.json", "-o", "{dir}/t.csv", "--states-out", "{dir}/states.json"],
    ),
    "rl-train": (
        RL_FLAGS | {
            "--episodes": "2", "--seed": "0", "--learning-rate": "0.1", "--discount": "1.0",
            "--epsilon-start": "1.0", "--epsilon-end": "0.05",
        },
        ["--maze", "{dir}/maze.json", "-o", "{dir}/curve.csv", "--policy-out", "{dir}/policy.json"],
    ),
    "rl-eval": (RL_FLAGS, ["--maze", "{dir}/maze.json", "-o", "{dir}/report.txt"]),
    "embed-train": (
        {"--n-per-class": "3", "--data-seed": "0", "--lr": "0.1", "--epochs": "3", "--seed": "0"},
        ["-o", "{dir}/log.csv", "--model-out", "{dir}/model.json", "--dataset-out", "{dir}/data.json"],
    ),
    "embed-gram": (
        {"--n-per-class": "3", "--data-seed": "0", "--thetas": "0.1 0.2 0.3", "--shots": "10", "--seed": "1"},
        ["--mode", "sampled", "-o", "{dir}/g.csv"],
    ),
}

# the field a message may name in place of the flag, where it is not the flag's own name
FIELDS = {"--lr": "learning_rate", "--thetas": "thetas"}


def named(err: str, flag: str, flags: dict) -> bool:
    """Whether a message names the flag, its field or, for a maze's width or height, the maze's size."""
    if flag in err or FIELDS.get(flag, flag[2:].replace("-", "_")) in err:
        return True
    return flag in ("--width", "--height") and f"maze {flags['--width']}x{flags['--height']} " in err


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run(argv: list[str]) -> tuple[int, str, list[str]]:
    """Exit code, stderr and RuntimeWarnings of ``cli.main(argv)``; an argparse refusal exits through SystemExit."""
    err = io.StringIO()
    with (
        contextlib.redirect_stderr(err),
        contextlib.redirect_stdout(io.StringIO()),
        warnings.catch_warnings(record=True) as caught,
    ):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue(), [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


def check_edge_values(command: str, drawn: dict[str, str], position: int) -> None:
    """Run ``command`` with the drawn flags at their edge values and the rest valid; check exit, message, warnings and JSON."""
    flags, rest = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "maze.json").write_text(serialize(generate_perfect_maze(3, 3, seed=2)))
        argv = [command]
        for name, valid in flags.items():
            values = valid.split()
            if name not in drawn:
                argv += [name, *values]
            elif len(values) == 1:
                argv.append(f"{name}={drawn[name]}")  # so that argparse reads -inf as a value
            else:  # --thetas takes three values: one of them is drawn
                values[position] = drawn[name]
                argv += [name, *values]
        argv += [arg.format(dir=tmp) for arg in rest]
        code, err, runtime_warnings = run(argv)
        assert code in (0, 2, 3), (argv, err)
        assert not runtime_warnings, (argv, runtime_warnings)
        if code == 2:
            assert any(named(err, flag, flags | drawn) for flag in drawn), (argv, err)
        for path in directory.glob("*.json"):
            json.loads(path.read_text(), parse_constant=reject_constant)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_edge_value_of_one_numeric_flag(command, data):
    flags = sorted(COMMANDS[command][0])
    case = st.tuples(st.sampled_from(flags), st.sampled_from(EDGE_VALUES), st.integers(0, 2))
    flag, value, position = data.draw(case, label="flag, value, position")
    check_edge_values(command, {flag: value}, position)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_edge_values_of_two_numeric_flags(command, data):
    flags = sorted(COMMANDS[command][0])
    pair = st.lists(st.sampled_from(flags), min_size=2, max_size=2, unique=True)
    case = st.tuples(pair, st.tuples(st.sampled_from(EDGE_VALUES), st.sampled_from(EDGE_VALUES)), st.integers(0, 2))
    pair, values, position = data.draw(case, label="flags, values, position")
    check_edge_values(command, dict(zip(pair, values)), position)
