"""Self-contained PPO power control for underlay spectrum sharing.

A licensed population of transmitter/receiver pairs shares bandwidth with an
opportunistic population; the only signalling between the two systems is the
number of licensed links whose rate fell below threshold. Both populations
learn transmit powers with a from-scratch continuous PPO (numpy only).
"""

from .env import EnvConfig, SpectrumSharingEnv
from .geometry import ChannelParams
from .harness import (
    ConfigError,
    ExperimentConfig,
    build_config,
    run_experiment,
    summarize_dir,
)
from .nets import DenseNet, GaussianPolicyNet, ValueNet
from .phy import RadioConfig, evaluate_links
from .ppo import (
    MODE_CENTRALIZED_DIST,
    MODE_CENTRALIZED_FULL_CSI,
    MODE_COEXIST,
    MODES,
    OBS_CENTRALIZED_DIST,
    OBS_CENTRALIZED_FULL_CSI,
    OBS_PRIMARY,
    OBS_SECONDARY,
    PpoHyper,
    TrajectoryBatch,
    compute_gae,
    observation_dim,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "ConfigError",
    "DenseNet",
    "EnvConfig",
    "ExperimentConfig",
    "GaussianPolicyNet",
    "MODES",
    "MODE_CENTRALIZED_DIST",
    "MODE_CENTRALIZED_FULL_CSI",
    "MODE_COEXIST",
    "OBS_CENTRALIZED_DIST",
    "OBS_CENTRALIZED_FULL_CSI",
    "OBS_PRIMARY",
    "OBS_SECONDARY",
    "PpoHyper",
    "RadioConfig",
    "SpectrumSharingEnv",
    "TrajectoryBatch",
    "ValueNet",
    "build_config",
    "compute_gae",
    "evaluate_links",
    "observation_dim",
    "run_experiment",
    "summarize_dir",
    "train",
]
