"""Flat run configuration: defaults < config file < --set pairs < flags.

Config files are ``key = value`` text.  Every field of
:class:`~lankgc.training.TrainConfig` is addressable by name, plus
``aggregator``, ``scorer``, ``logic_mode`` and ``epsilon``.  Unknown
keys are rejected.
"""

from __future__ import annotations

import typing

from .encoder import AggregatorConfig
from .training import TrainConfig
from .util import read_kv


class ConfigError(ValueError):
    pass


_AGGREGATOR_DEFAULTS = AggregatorConfig()
_EXTRA_DEFAULTS = {
    "aggregator": _AGGREGATOR_DEFAULTS.kind,
    "scorer": "transe",
    "logic_mode": _AGGREGATOR_DEFAULTS.logic_mode,
    "epsilon": _AGGREGATOR_DEFAULTS.epsilon,
}
_EXTRA_TYPES = {key: type(value) for key, value in _EXTRA_DEFAULTS.items()}


def _known_types():
    types = dict(typing.get_type_hints(TrainConfig))
    types.update(_EXTRA_TYPES)
    return types


def _coerce(key, text, typ):
    if typ is bool:
        low = str(text).strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {text!r}")
    try:
        return typ(text)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key}: expected {typ.__name__}, got {text!r}") from None


def resolve_config(config_path=None, set_pairs=(), overrides=None):
    """Merge all config sources into one fully-typed dict."""
    types = _known_types()
    resolved = {f: getattr(TrainConfig(), f) for f in typing.get_type_hints(TrainConfig)}
    resolved.update(_EXTRA_DEFAULTS)

    def apply(key, raw):
        if key not in types:
            raise ConfigError(f"unknown config key: {key}")
        resolved[key] = _coerce(key, raw, types[key]) if isinstance(raw, str) else raw

    if config_path:
        for key, raw in read_kv(config_path).items():
            apply(key, raw)
    for pair in set_pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        apply(key.strip(), raw.strip())
    for key, value in (overrides or {}).items():
        if value is not None:
            apply(key, value)
    return resolved


def train_config_from(resolved):
    fields = {k: v for k, v in resolved.items() if k in typing.get_type_hints(TrainConfig)}
    try:
        return TrainConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def aggregator_config_from(resolved):
    try:
        return AggregatorConfig(
            kind=resolved["aggregator"],
            neighbor_budget=resolved["neighbor_budget"],
            logic_mode=resolved["logic_mode"],
            epsilon=resolved["epsilon"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
