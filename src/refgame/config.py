"""Experiment configuration: YAML loading, validation, defaults.

All defaults follow the published parameters: 4 communication rounds of 30
tasks, 15 training stimuli, 10,000 Mantel permutations, greedy decoding.
Credentials never live in the file; the backend section names an
environment variable instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .agents import AGENT_SPECS
from .backend import BackendDescriptor, BackendError, load_chat_template
from .chains import ChainConfig, ChainError
from .domain import DomainError
from .engine import EngineError, RunConfig, decode_fields


class ConfigError(Exception):
    """Invalid configuration; message carries the offending line or key."""


@dataclass
class ExperimentConfig:
    master_seed: int = 0
    count: int = 1
    agents: list[str] = field(default_factory=lambda: ["oracle:lookup", "oracle:lookup"])
    output_dir: str = "runs"
    run: RunConfig = field(default_factory=RunConfig)
    chain: ChainConfig = field(default_factory=ChainConfig)
    backend: BackendDescriptor = field(default_factory=BackendDescriptor)


def config_from_dict(data) -> ExperimentConfig:
    """Keys and value types are checked here, by ``decode_fields``; ranges by
    ``validate_config`` on the final config, after command-line flags."""
    try:
        config = decode_fields(ExperimentConfig, data, "the config root")
    except DomainError as err:
        raise ConfigError(str(err)) from None
    # every run derives its master seed from the root one
    if "master_seed" in (data.get("run") or {}):
        raise ConfigError("section 'run' has unknown key(s) ['master_seed']")
    return config


def validate_config(config: ExperimentConfig) -> None:
    if config.count < 1:
        raise ConfigError("count must be >= 1")
    if len(config.agents) != 2:
        raise ConfigError("exactly two agents are required")
    for spec in config.agents:
        if spec not in AGENT_SPECS:
            raise ConfigError(f"unknown agent spec {spec!r}; known: {', '.join(AGENT_SPECS)}")
    for section in ("run", "chain", "backend"):
        try:
            getattr(config, section).validate()
        except (EngineError, ChainError, BackendError) as err:
            raise ConfigError(f"{section}: {err}") from err


def check_backend_credentials(config: ExperimentConfig) -> None:
    """Pre-flight for live runs: an llm agent needs an endpoint, its
    credential environment variable set to printable ASCII, which the
    message never repeats, and a chat template that loads."""
    if not any(spec == "llm" for spec in config.agents):
        return
    if not config.backend.endpoint:
        raise ConfigError("llm agents need backend.endpoint")
    env = config.backend.api_key_env
    if env and env not in os.environ:
        raise ConfigError(
            f"credential environment variable {env} is not set "
            f"(export it or change backend.api_key_env)"
        )
    key = os.environ.get(env, "")
    if not (key.isascii() and key.isprintable()):  # an HTTP header carries nothing else
        raise ConfigError(f"credential environment variable {env} holds a character that is not printable ASCII")
    try:
        load_chat_template(config.backend.template)
    except BackendError as err:
        raise ConfigError(f"backend: {err}") from err


# libyaml when it is installed: faster, with the same values and error line
# numbers as the pure-Python loader, though some error texts differ
_SAFE_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = yaml.load(Path(path).read_text(), Loader=_SAFE_LOADER)
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} cannot be decoded: {err}") from None
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        location = f"line {mark.line + 1}" if mark is not None else "unknown line"
        raise ConfigError(f"{path}: YAML error at {location}: {err}") from err
    try:
        return config_from_dict({} if data is None else data)  # an empty file: the defaults
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from err
