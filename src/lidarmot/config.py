"""Run configuration: named presets plus JSON config files with layered
overrides.

The three presets trade accuracy against speed and reaction time:

==========  =============  ============  ======  =====
preset      window stride  conf. thresh  c_init  c_del
==========  =============  ============  ======  =====
config-1    1              0.85          10      15
config-2    10             0.85          10      15
config-3    10             0.80          5       15
==========  =============  ============  ======  =====
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .dataset import _reject_constant
from .detection import DetectorConfig
from .pipeline import PipelineConfig
from .simulator import ScenarioConfig
from .tracking import TrackerConfig


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


PRESETS: dict[str, dict] = {
    "config-1": {
        "detector": {"window_stride": 1, "confidence_threshold": 0.85},
        "tracker": {"c_init": 10, "c_del": 15},
    },
    "config-2": {
        "detector": {"window_stride": 10, "confidence_threshold": 0.85},
        "tracker": {"c_init": 10, "c_del": 15},
    },
    "config-3": {
        "detector": {"window_stride": 10, "confidence_threshold": 0.8},
        "tracker": {"c_init": 5, "c_del": 15},
    },
}

#: The sections a file or flag may set. ``RunConfig.pipeline`` is not one:
#: each command picks the pipeline mode itself (``--realtime``, or a serial
#: batch), and the mode is its only setting.
_SECTION_TYPES = {
    "detector": DetectorConfig,
    "tracker": TrackerConfig,
    "scenario": ScenarioConfig,
}
_FIELD_TYPES = {name: typing.get_type_hints(cls) for name, cls in _SECTION_TYPES.items()}


@dataclass(frozen=True)
class RunConfig:
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    # No command reads it: each builds its own PipelineConfig. The
    # benchmark's live workload replaces its two fields.
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    preset: str | None = None


#: Fields only Python callers may set, per section. Scenario fields that
#: hold objects (LidarParams, agents, shapes) would store raw dicts from
#: JSON.
_NOT_FROM_FILE = {
    "scenario": ("lidar", "scripted_agents", "occluder_walls"),
}


def _build_section(name: str, base, overrides: dict):
    for key in overrides:
        if key not in _FIELD_TYPES[name]:
            raise ConfigError(f"unknown field {name}.{key}")
        if key in _NOT_FROM_FILE.get(name, ()):
            raise ConfigError(f"{name}.{key} cannot be set from a config file")
    try:
        section = dataclasses.replace(base, **overrides)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid value in section {name!r}: {exc}") from exc
    for key, value in overrides.items():
        expected = _type_error(_FIELD_TYPES[name][key], value)
        if expected:
            raise ConfigError(
                f"invalid value in section {name!r}: {key} must be {expected}, got {value!r}"
            )
    # A JSON list fills a tuple field as a tuple, so a section stays hashable.
    lists = {key: tuple(value) for key, value in overrides.items() if isinstance(value, list)}
    return dataclasses.replace(section, **lists) if lists else section


def _finite(value) -> bool:
    """A JSON number, not a bool, that is finite."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _type_error(kind, value) -> str | None:
    """What ``value`` must be to fill a field of type ``kind``, if it is not.
    Only the plain types a file or flag sets are checked here; each field's
    range is checked by its section's ``__post_init__``."""
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        return "an integer"
    if kind is float and not _finite(value):
        return "a finite number"
    if typing.get_origin(kind) is tuple and typing.get_args(kind)[0] is float:
        if not isinstance(value, (list, tuple)) or not all(map(_finite, value)):
            return "a list of finite numbers"
    return None


def apply_layer(cfg: RunConfig, layer: dict) -> RunConfig:
    """``cfg`` with one layer of settings on top: a preset's, a config file's
    or the command line's, as ``{section: {field: value}}``. Every key is
    checked and an error names it as ``section.key``."""
    updates = {}
    for key, value in layer.items():
        if key in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be an object")
            updates[key] = _build_section(key, getattr(cfg, key), value)
        elif key == "preset":
            pass  # handled by the caller before layering
        else:
            raise ConfigError(f"unknown field {key}")
    return dataclasses.replace(cfg, **updates)


def expand_preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r} (known: {', '.join(sorted(PRESETS))})"
        )
    cfg = apply_layer(RunConfig(), PRESETS[name])
    return dataclasses.replace(cfg, preset=name)


def load_config(source: str | Path | None = None, preset: str | None = None) -> RunConfig:
    """Resolve a run configuration.

    ``source`` may be a preset name or a JSON file path; a file may itself
    name a preset, whose values it then overrides field by field. An explicit
    ``preset`` argument provides the base when ``source`` is a file or None.
    """
    if source is not None and str(source) in PRESETS:
        return expand_preset(str(source))

    base = expand_preset(preset) if preset else RunConfig()
    if source is None:
        return base

    path = Path(source)
    if not path.exists():
        raise ConfigError(f"config {str(source)!r} is neither a preset nor a file")
    try:
        layer = json.loads(path.read_text(), parse_constant=_reject_constant)
    except ValueError as exc:  # malformed JSON, or a NaN/Infinity token
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(layer, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if "preset" in layer and not preset:
        base = expand_preset(layer["preset"])
    return apply_layer(base, layer)
