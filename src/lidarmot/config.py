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
from dataclasses import dataclass, field
from pathlib import Path

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

_SECTION_TYPES = {
    "detector": DetectorConfig,
    "tracker": TrackerConfig,
    "pipeline": PipelineConfig,
    "scenario": ScenarioConfig,
}


@dataclass(frozen=True)
class RunConfig:
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    detector_name: str = "cluster"
    preset: str | None = None


#: Fields only Python callers may set, per section. Scenario fields that
#: hold objects (LidarParams, agents, shapes) would store raw dicts from
#: JSON. The pipeline mode is chosen by each command (``--realtime``, or a
#: serial batch), so a file's value would be ignored.
_NOT_FROM_FILE = {
    "scenario": ("lidar", "scripted_agents", "occluder_walls", "clutter"),
    "pipeline": ("pipelined", "drop_stale"),
}


def _build_section(name: str, base, overrides: dict):
    cls = _SECTION_TYPES[name]
    known = {f.name for f in dataclasses.fields(cls)}
    for key in overrides:
        if key not in known:
            raise ConfigError(f"unknown field {name}.{key}")
        if key in _NOT_FROM_FILE.get(name, ()):
            raise ConfigError(f"{name}.{key} cannot be set from a config file")
    try:
        return dataclasses.replace(base, **overrides)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid value in section {name!r}: {exc}") from exc


def _apply_layer(cfg: RunConfig, layer: dict) -> RunConfig:
    updates = {}
    for key, value in layer.items():
        if key in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key!r} must be an object")
            updates[key] = _build_section(key, getattr(cfg, key), value)
        elif key == "detector_name":
            if value not in ("cluster", "replay"):
                raise ConfigError(f"unknown detector_name {value!r}")
            updates["detector_name"] = value
        elif key == "preset":
            pass  # handled by the caller before layering
        else:
            raise ConfigError(f"unknown field {key}")
    return dataclasses.replace(cfg, **updates)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def expand_preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r} (known: {', '.join(sorted(PRESETS))})"
        )
    cfg = _apply_layer(RunConfig(), PRESETS[name])
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
    return _apply_layer(base, layer)
