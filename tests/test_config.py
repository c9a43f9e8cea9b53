import dataclasses
import json
import math

import pytest

from lidarmot.config import ConfigError, PRESETS, expand_preset, load_config
from lidarmot.detection import DetectorConfig
from lidarmot.pipeline import PipelineConfig
from lidarmot.simulator import ScenarioConfig, ScriptedAgent, Segment
from lidarmot.tracking import C_DEL, TrackerConfig


class TestPresets:
    # The three named configurations, exactly. They share one deletion age,
    # a constant.
    @pytest.mark.parametrize(
        "name, stride, threshold, c_init, c_del",
        [
            ("config-1", 1, 0.85, 10, 15),
            ("config-2", 10, 0.85, 10, 15),
            ("config-3", 10, 0.8, 5, 15),
        ],
    )
    def test_expansion_table(self, name, stride, threshold, c_init, c_del):
        cfg = load_config(name)
        assert cfg.detector.window_stride == stride
        assert cfg.detector.confidence_threshold == threshold
        assert cfg.tracker.c_init == c_init
        assert C_DEL == c_del
        assert cfg.preset == name

    def test_all_presets_expand(self):
        for name in PRESETS:
            expand_preset(name)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_config("config-9")


class TestConfigFiles:
    def test_file_overrides_single_field(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"preset": "config-2", "tracker": {"c_init": 7}}))
        cfg = load_config(path)
        assert cfg.detector.window_stride == 10
        assert cfg.detector.confidence_threshold == 0.85
        assert cfg.tracker == TrackerConfig(c_init=7)

    def test_scenario_section(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": {"kind": "mr1", "seed": 4}}))
        cfg = load_config(path)
        assert cfg.scenario.kind == "mr1"
        assert cfg.scenario.seed == 4

    def test_out_of_range_value_names_section(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"tracker": {"c_init": 0}}))
        with pytest.raises(ConfigError, match="tracker"):
            load_config(path)

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"tracker": {"c_int": 5}}))
        with pytest.raises(ConfigError, match="c_int"):
            load_config(path)
        # Nothing read this speed limit, and a file has no pipeline section.
        path.write_text(json.dumps({"pipeline": {"robot_speed_max": 0.5}}))
        with pytest.raises(ConfigError, match=r"^unknown field pipeline$"):
            load_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"trackers": {}}))
        with pytest.raises(ConfigError, match="trackers"):
            load_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("text, expected", [
        ('{"tracker": {"gate_distance": NaN}}', "non-finite number NaN"),
        ('{"scenario": {"duration": Infinity}}', "non-finite number Infinity"),
        # The token is refused before any section is read.
        ('{"pipeline": {"velocity_gate": -Infinity}}', "non-finite number -Infinity"),
        # An overflowing literal decodes to inf; the section refuses it.
        ('{"scenario": {"duration": 1e999}}', "duration must be positive and finite"),
        # The velocity gate is a constant, and a file has no pipeline section.
        ('{"pipeline": {"velocity_gate": 1e999}}', "^unknown field pipeline$"),
        ('{"pipeline": {"velocity_gate": -0.1}}', "^unknown field pipeline$"),
    ], ids=["gate_distance-NaN", "duration-Infinity", "velocity_gate--Infinity",
            "duration-1e999", "velocity_gate-1e999", "velocity_gate-negative"])
    def test_non_finite_value_refused(self, tmp_path, text, expected):
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=expected):
            load_config(path)

    @pytest.mark.parametrize("make", [
        lambda: ScenarioConfig(duration=math.inf),
        lambda: ScenarioConfig(duration=math.nan),
    ], ids=["duration-inf", "duration-nan"])
    def test_non_finite_setting_refused(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("cls, key, value", [
        (cls, key, value)
        for cls, key, values in [
            # These died in numpy or in an unpacking error that named no
            # field.
            (ScenarioConfig, "seed", (-1,)),
            # From Python these died in a TypeError that named no field, and
            # a True n_persons simulated one person.
            (ScenarioConfig, "n_persons", (2.5, math.nan, True)),
            (ScenarioConfig, "seed", (2.5, math.nan, True)),
            (ScenarioConfig, "arena", ((1.0, 2.0, 3.0), (-2.0, -2.0, 2.0, math.inf),
                                       (-2.0, math.nan, 2.0, 2.0), (2.0, -2.0, -2.0, 2.0))),
            # From Python these were taken: a NaN c_init never initiated a
            # track, and a hit counter could read 2.5.
            (TrackerConfig, "c_init", (math.nan, math.inf, 2.5, True, 0)),
            (DetectorConfig, "window_stride", (math.nan, math.inf, 2.5, True, 0)),
        ]
        for value in values
    ])
    def test_degenerate_setting_refused_by_name(self, cls, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be "):
            cls(**{key: value})

    @pytest.mark.parametrize("key, value, expected", [
        # These simulated without a word: the ground truth held NaN and the
        # first scan had no finite return.
        ("scripted_agents", (ScriptedAgent(0, math.nan, 0.0, 0.0, 0.0),),
         r"scripted_agents\[0\]\.x must be a finite number, got nan"),
        ("scripted_agents", (ScriptedAgent(0, 1.0, 0.0, 0.0, 0.0),
                             ScriptedAgent(1, 1.0, 1.0, 0.0, -math.inf)),
         r"scripted_agents\[1\]\.vy must be a finite number, got -inf"),
        ("scripted_agents", (ScriptedAgent(0, 1.0, "0", 0.0, 0.0),),
         r"scripted_agents\[0\]\.y must be a finite number, got 0"),
        ("scripted_agents", (ScriptedAgent(0, 1.0, 0.0, 0.0, 0.0, radius=-0.3),),
         r"scripted_agents\[0\]\.radius must be positive and finite, got -0.3"),
        ("scripted_agents", (ScriptedAgent(0, 1.0, 0.0, 0.0, 0.0, radius=0.0),),
         r"scripted_agents\[0\]\.radius must be positive and finite, got 0.0"),
        ("scripted_agents", (ScriptedAgent(0, 1.0, 0.0, 0.0, 0.0, radius=math.nan),),
         r"scripted_agents\[0\]\.radius must be positive and finite, got nan"),
        ("occluder_walls", (Segment(1.0, math.inf, 1.0, 0.0),),
         r"occluder_walls\[0\]\.y1 must be a finite number, got inf"),
        ("occluder_walls", (Segment(1.0, 0.0, 1.0, 1.0), Segment(0.0, 0.0, math.nan, 0.0)),
         r"occluder_walls\[1\]\.x2 must be a finite number, got nan"),
    ], ids=["agent-x-nan", "agent-vy-inf", "agent-y-str", "agent-radius-negative",
            "agent-radius-zero", "agent-radius-nan", "wall-y1-inf", "wall-x2-nan"])
    def test_bad_scripted_agent_or_wall_refused_by_name(self, key, value, expected):
        with pytest.raises(ValueError, match=f"^{expected}$"):
            ScenarioConfig(kind="custom", **{key: value})

    @pytest.mark.parametrize("section, key, literal, expected", [
        ("scenario", "n_persons", "2.5", "an integer"),
        ("scenario", "seed", "1.5", "an integer"),
        ("scenario", "seed", "true", "an integer"),
        ("scenario", "arena", "[-4, -4, 4, 1e999]", "a list of finite numbers"),
        ("tracker", "c_init", "2.5", "an integer"),
        # The deletion age and the gate are constants, so a file names
        # neither, whatever the value.
        ("tracker", "c_del", "true", None),
        ("tracker", "gate_distance", "1e999", None),
        ("detector", "window_stride", "2.5", "an integer"),
        ("detector", "confidence_threshold", "true", "a finite number"),
    ], ids=["n_persons-float", "seed-float", "seed-bool", "arena-overflow", "c_init-float", "c_del-bool",
            "gate_distance-overflow", "window_stride-float", "confidence_threshold-bool"])
    def test_wrong_type_refused_by_name(self, tmp_path, section, key, literal, expected):
        path = tmp_path / "run.json"
        path.write_text(f'{{"{section}": {{"{key}": {literal}}}}}')
        match = (
            rf"^unknown field {section}\.{key}$" if expected is None
            else rf"section '{section}': {key} must be {expected}, got "
        )
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    @pytest.mark.parametrize("key, literal", [
        ("queue_capacity", "2.5"),
        ("scan_rate_hz", "1e999"),
        ("velocity_gate", "0.05"),
    ])
    def test_removed_pipeline_field_unknown(self, tmp_path, key, literal):
        # The scan period is read from the scans, the queues hold a fixed
        # two scans and the velocity gate is a constant; a file has no
        # pipeline section at all.
        path = tmp_path / "run.json"
        path.write_text(f'{{"pipeline": {{"{key}": {literal}}}}}')
        with pytest.raises(ConfigError, match=r"^unknown field pipeline$"):
            load_config(path)

    def test_settable_fields(self):
        # The Kalman noise, the deletion age and the gate, the scene's
        # walking and driving limits, the scan noise and dropout and the
        # velocity gate are module constants; these are what a caller can
        # set. A file or flag sets no pipeline field.
        assert [f.name for f in dataclasses.fields(TrackerConfig)] == ["c_init"]
        assert [f.name for f in dataclasses.fields(ScenarioConfig)] == [
            "kind", "arena", "duration", "n_persons", "occluder_walls", "seed",
            "scripted_agents", "lidar"]
        assert [f.name for f in dataclasses.fields(PipelineConfig)] == [
            "pipelined", "drop_stale"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_detector_name_validated(self, tmp_path):
        # Recorded detections are replayed by `lidarmot track`; no setting
        # picks a detector.
        path = tmp_path / "run.json"
        for name in ("cluster", "replay"):
            path.write_text(json.dumps({"detector_name": name}))
            with pytest.raises(ConfigError, match="^unknown field detector_name$"):
                load_config(path)

    def test_defaults_without_source(self):
        cfg = load_config(None)
        assert cfg.preset is None
        assert cfg.detector.window_stride == 1
        assert cfg.pipeline == PipelineConfig()


class TestScenarioObjectFields:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("lidar", {"rate_hz": 10}),
            ("scripted_agents", [{"id": 3, "x": 1.0, "y": 0.5, "vx": 0.2, "vy": 0.0}]),
            ("occluder_walls", [{"x1": 1, "y1": -1, "x2": 1, "y2": 1}]),
            # Each command sets the pipeline mode itself.
            ("pipeline.pipelined", False),
            ("pipeline.drop_stale", False),
        ],
    )
    def test_object_field_rejected_by_name(self, tmp_path, key, value):
        # A bare key is a scenario field. The pipeline's fields are refused
        # with their whole section, which a file does not have.
        section, _, name = key.rpartition(".")
        section = section or "scenario"
        path = tmp_path / "run.json"
        path.write_text(json.dumps({section: {name: value}}))
        expected = (r"^unknown field pipeline$" if section == "pipeline"
                    else rf"{section}\.{name} cannot be set from a config file")
        with pytest.raises(ConfigError, match=expected):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("clutter", [{"x": 2.0, "y": 0.0, "radius": 0.03}]),
        ("arena_walls", False),
        ("robot_start", [0.0, 0.0, 0.0]),
    ])
    def test_removed_scenario_field_unknown(self, tmp_path, key, value):
        # A scenario's kind decides its robot start, walls and furniture.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": {key: value}}))
        with pytest.raises(ConfigError, match=rf"unknown field scenario\.{key}$"):
            load_config(path)

    def test_arena_list_still_accepted(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"scenario": {"kind": "mr1", "arena": [-4, -4, 4, 4]}}))
        scenario = load_config(path).scenario
        assert list(scenario.arena) == [-4, -4, 4, 4]
        # Stored as the field's tuple, so the section stays hashable: a bench
        # sweep keys its scenes by it.
        assert scenario.arena == (-4, -4, 4, 4) and hash(scenario) == hash(scenario)
