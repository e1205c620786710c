"""Experiment configuration: YAML loading, validation, defaults.

All defaults follow the published parameters: 4 communication rounds of 30
tasks, 15 training stimuli, 10,000 Mantel permutations, greedy decoding.
Credentials never live in the file; the backend section names an
environment variable instead.
"""

from __future__ import annotations

import os
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .agents import ORACLE_KINDS
from .backend import BackendDescriptor, BackendError, load_chat_template
from .chains import ChainConfig, ChainError
from .engine import EngineError, RunConfig


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


def _has_type(value, hint) -> bool:
    """Whether a YAML value fits a field annotation; an int fits a float, a
    bool fits neither, and containers are checked by their outer type."""
    origin = typing.get_origin(hint)
    if origin is types.UnionType:
        return any(_has_type(value, arg) for arg in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, origin or hint)


def _check_types(cls, data: dict, path: str) -> None:
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        if not _has_type(value, hints[key]):
            expected = getattr(hints[key], "__name__", hints[key])
            raise ConfigError(f"'{key}' in section '{path}' must be {expected}, got {value!r}")


def _build_section(cls, data, path: str, derived: frozenset = frozenset()):
    """``cls`` from one YAML section; an empty section (``None``) is the defaults."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"section '{path}' must be a mapping, got {data!r}")
    known = set(cls.__dataclass_fields__) - derived
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section '{path}'")
    _check_types(cls, data, path)
    try:
        return cls(**data)
    except TypeError as err:
        raise ConfigError(f"invalid section '{path}': {err}") from err


def config_from_dict(data: dict) -> ExperimentConfig:
    """Keys and value types are checked here; ranges are checked by
    ``validate_config`` on the final config, after command-line flags."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    data = dict(data)
    run_data = data.pop("run", None)
    chain_data = data.pop("chain", None)
    backend_data = data.pop("backend", None)
    config = _build_section(ExperimentConfig, data, "<root>")
    # every run derives its master seed from the root one
    config.run = _build_section(RunConfig, run_data, "run", derived=frozenset({"master_seed"}))
    config.chain = _build_section(ChainConfig, chain_data, "chain")
    config.backend = _build_section(BackendDescriptor, backend_data, "backend")
    return config


def validate_config(config: ExperimentConfig) -> None:
    if config.count < 1:
        raise ConfigError("count must be >= 1")
    if len(config.agents) != 2:
        raise ConfigError("exactly two agents are required")
    known = ["llm"] + [f"oracle:{kind}" for kind in ORACLE_KINDS]
    for spec in config.agents:
        if spec not in known:
            raise ConfigError(f"unknown agent spec {spec!r}; known: {', '.join(known)}")
    try:
        config.run.validate()
    except EngineError as err:
        raise ConfigError(f"run: {err}") from err
    try:
        config.chain.validate()
    except ChainError as err:
        raise ConfigError(f"chain: {err}") from err
    try:
        config.backend.validate()
    except BackendError as err:
        raise ConfigError(f"backend: {err}") from err


def check_backend_credentials(config: ExperimentConfig) -> None:
    """Pre-flight for live runs: an llm agent needs an endpoint, its
    credential environment variable set and a chat template that loads."""
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
    try:
        load_chat_template(config.backend.template)
    except BackendError as err:
        raise ConfigError(f"backend: {err}") from err


# libyaml: the same values and error lines as the pure-Python loader, faster
_SAFE_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = yaml.load(Path(path).read_text(), Loader=_SAFE_LOADER) or {}
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path} cannot be decoded: {err}") from None
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        location = f"line {mark.line + 1}" if mark is not None else "unknown line"
        raise ConfigError(f"{path}: YAML error at {location}: {err}") from err
    try:
        return config_from_dict(data)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from err
