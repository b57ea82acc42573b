"""Simulation toolkit for two quantum machine-learning experiments:

- a quantum stochastic walker escaping a perfect maze under Lindblad
  dynamics, with a reinforcement-learning agent that edits the maze
  topology to boost the escape probability, and
- a trainable single-qubit embedding classifier evaluated through
  exact or SWAP-test-sampled Gram matrices.
"""

from .dynamics import (
    IntegrationError,
    LindbladModel,
    QSWParams,
    Trajectory,
    build_model,
    evolve,
    initial_state,
    lindblad_rhs,
    p_sink_from_integral,
)
from .embedding import (
    EmbeddingModel,
    GramMatrix,
    LabeledDataset1D,
    TrainConfig,
    classify,
    embed,
    gram,
    gradient,
    loss,
    overlap_exact,
    swap_test,
    synth_dataset,
    train_embedding,
)
from .maze import (
    MazeFormatError,
    MazeGraph,
    degrees,
    deserialize,
    generate_perfect_maze,
    serialize,
    toggle_link,
)
from .rlmaze import (
    Action,
    EpisodeRecord,
    LearningCurve,
    MazeEnv,
    Policy,
    QLearningConfig,
    evaluate,
    run_episode,
    train,
)
from .states import DensityMatrix, PureState

__all__ = [
    "Action",
    "DensityMatrix",
    "EmbeddingModel",
    "EpisodeRecord",
    "GramMatrix",
    "IntegrationError",
    "LabeledDataset1D",
    "LearningCurve",
    "LindbladModel",
    "MazeEnv",
    "MazeFormatError",
    "MazeGraph",
    "Policy",
    "PureState",
    "QLearningConfig",
    "QSWParams",
    "TrainConfig",
    "Trajectory",
    "build_model",
    "classify",
    "degrees",
    "deserialize",
    "embed",
    "evaluate",
    "evolve",
    "generate_perfect_maze",
    "gradient",
    "gram",
    "initial_state",
    "lindblad_rhs",
    "loss",
    "overlap_exact",
    "p_sink_from_integral",
    "run_episode",
    "serialize",
    "swap_test",
    "synth_dataset",
    "toggle_link",
    "train",
    "train_embedding",
]

__version__ = "0.1.0"
