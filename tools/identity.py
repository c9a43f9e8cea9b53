"""Byte-identity check of two checkouts: the outputs a refactor must not move.

    python3 tools/identity.py --parent PARENT_DIR --change CHANGE_DIR

Runs one digest set in each checkout, with that checkout's ``src`` on
``PYTHONPATH``, prints a table of both sides' digests (sha256, first 12 hex
digits), and exits 1 if any output differs. The set:

- the quality table: ``bench --preset config-1,config-2,config-3 --seeds 1,2
  --duration 20 --kind K`` for sr, mr1 and mr2, each ``report.json``;
- the crowd scene (mr1, 10 persons, seed 71, 8 m arena, 15 s) at
  ``config-1``: ``simulate``'s scans and ground truth; ``detect``'s
  detections; ``tracks.jsonl`` and ``obstacles.jsonl`` from ``pipeline``,
  from ``track`` with the scans, and from ``track`` on detections and ground
  truth alone; with every wall-clock value (``worst``, ``avg``,
  ``achieved_hz``) masked, the pipeline's ``timings.json`` and the
  ``report.json`` of a one-row ``bench --timings`` that simulates the
  scene; and, with their ``metadata.source`` (a temporary directory)
  masked, the ``report.json`` of ``evaluate`` on the pipeline's tracks and
  of ``bench --in`` on the recording;
- the crowd recording with its scans' poses removed, which every command
  tracks at the ground-truth robot pose: ``tracks.jsonl`` and
  ``obstacles.jsonl`` from ``pipeline``, and the ``report.json`` of
  ``bench --in`` with its ``metadata.source`` masked;
- ``run_scenario(cfg, labels=True)`` for sr, mr1 and mr2, seeds 1-3 (20 s),
  for the crowd scene, where ten persons walk among the furniture, and for
  the hand-built ``custom`` kind, ``experiments.emergence_scenario(seed)``
  for seeds 0-2 (a scripted person behind a wall): its scans (times, poses
  and ranges), ground truth and labels.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

KINDS = ("sr", "mr1", "mr2")
CROWD = {
    "scenario": {"kind": "mr1", "n_persons": 10, "seed": 71, "arena": [-4, -4, 4, 4],
                 "duration": 15.0},
}
SCENES = """
import hashlib, json, sys
from lidarmot.experiments import emergence_scenario
from lidarmot.simulator import ScenarioConfig, run_scenario

def digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:12]

crowd = json.loads(sys.argv[1])
crowd["arena"] = tuple(crowd["arena"])
scenes = {f"run_scenario {kind} seed {seed}": ScenarioConfig(kind=kind, seed=seed, duration=20.0)
          for kind in ("sr", "mr1", "mr2") for seed in (1, 2, 3)}
scenes["run_scenario crowd"] = ScenarioConfig(**crowd)
scenes.update({f"run_scenario custom seed {seed}": emergence_scenario(seed) for seed in (0, 1, 2)})
out = {}
for name, cfg in scenes.items():
    scans, gt, labels = run_scenario(cfg, labels=True)
    out[f"{name} scans"] = digest(
        repr((s.timestamp, s.pose)).encode() + s.ranges.tobytes() for s in scans
    )
    out[f"{name} ground truth"] = digest(repr(f).encode() for f in gt)
    out[f"{name} labels"] = digest(lab.tobytes() for lab in labels)
print(json.dumps(out))
"""


#: The wall-clock values of a timing output, masked before it is digested.
WALL_CLOCK_KEYS = ("worst", "avg", "achieved_hz")


def short_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def masked_digest(path: Path) -> str:
    """Digest of a JSON report with each value under a wall-clock key set to
    null; its keys and every other value are compared."""
    def mask(node):
        if isinstance(node, dict):
            return {k: None if k in WALL_CLOCK_KEYS else mask(v) for k, v in node.items()}
        return node

    report = mask(json.loads(path.read_text()))
    return short_digest(json.dumps(report, sort_keys=True).encode())


def strip_poses(scans: Path, target: Path) -> None:
    """Copy a scan file to ``target`` without each scan's ``pose``."""
    header, *records = scans.read_text().splitlines()
    lines = [header]
    for line in records:
        rec = json.loads(line)
        rec.pop("pose", None)
        lines.append(json.dumps(rec))
    target.write_text("\n".join(lines) + "\n")


def _env(checkout: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def lidarmot(checkout: Path, *argv) -> None:
    """``lidarmot ARGV`` from ``checkout``'s source tree; its output is dropped."""
    subprocess.run(
        [sys.executable, "-m", "lidarmot.cli", *map(str, argv)], cwd=checkout,
        env=_env(checkout), stdout=subprocess.DEVNULL, check=True,
    )


def quality_reports(checkout: Path) -> dict:
    """The quality table's ``report.json`` bytes for each scenario kind."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in KINDS:
            target = Path(tmp) / kind
            lidarmot(checkout, "bench", "--preset", "config-1,config-2,config-3", "--seeds",
                     "1,2", "--duration", "20", "--kind", kind, "--out", target)
            out[kind] = (target / "report.json").read_bytes()
    return out


def quality_digests(checkout: Path) -> dict:
    """The quality table's ``report.json`` digest for each scenario kind."""
    return {kind: short_digest(raw) for kind, raw in quality_reports(checkout).items()}


def crowd_digests(checkout: Path) -> dict:
    """Each command's outputs on the crowd scene."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "crowd.json"
        config.write_text(json.dumps(CROWD))
        sim, pipe = tmp / "sim", tmp / "pipeline"
        lidarmot(checkout, "simulate", "--config", config, "--preset", "config-1", "--out", sim)
        lidarmot(checkout, "detect", "--in", sim, "--preset", "config-1", "--out", sim)
        lidarmot(checkout, "pipeline", "--in", sim, "--preset", "config-1", "--out", pipe)
        lidarmot(checkout, "track", "--in", sim, "--preset", "config-1", "--out", tmp / "track")
        no_scans = tmp / "no-scans"
        no_scans.mkdir()
        for name in ("ground_truth.jsonl", "detections.jsonl"):
            shutil.copy(sim / name, no_scans / name)
        lidarmot(checkout, "track", "--in", no_scans, "--preset", "config-1",
                 "--out", tmp / "track-no-scans")
        shutil.copy(pipe / "tracks.jsonl", sim / "tracks.jsonl")
        lidarmot(checkout, "evaluate", "--in", sim, "--out", tmp / "evaluate")
        lidarmot(checkout, "bench", "--config", config, "--preset", "config-1", "--timings",
                 "--out", tmp / "bench")
        lidarmot(checkout, "bench", "--in", sim, "--preset", "config-1", "--out", tmp / "bench-in")
        poseless = tmp / "poseless"
        poseless.mkdir()
        shutil.copy(sim / "ground_truth.jsonl", poseless)
        strip_poses(sim / "scans.jsonl", poseless / "scans.jsonl")
        lidarmot(checkout, "pipeline", "--in", poseless, "--preset", "config-1",
                 "--out", tmp / "pipeline-poseless")
        lidarmot(checkout, "bench", "--in", poseless, "--preset", "config-1",
                 "--out", tmp / "bench-in-poseless")

        for name in ("scans.jsonl", "ground_truth.jsonl", "detections.jsonl"):
            out[f"crowd {name}"] = short_digest((sim / name).read_bytes())
        for run in ("pipeline", "track", "track-no-scans", "pipeline-poseless"):
            for name in ("tracks.jsonl", "obstacles.jsonl"):
                out[f"crowd {run} {name}"] = short_digest((tmp / run / name).read_bytes())
        out["crowd pipeline timings.json (masked)"] = masked_digest(pipe / "timings.json")
        out["crowd bench --timings report.json (masked)"] = masked_digest(
            tmp / "bench" / "report.json"
        )
        for run, target in (("evaluate", "evaluate"), ("bench --in", "bench-in"),
                            ("bench --in poseless", "bench-in-poseless")):
            report = json.loads((tmp / target / "report.json").read_text())
            report["metadata"]["source"] = None
            out[f"crowd {run} report.json (source masked)"] = short_digest(
                json.dumps(report, sort_keys=True).encode()
            )
    return out


def scene_digests(checkout: Path) -> dict:
    """``run_scenario(labels=True)``'s streams for each kind and seed, and for
    the crowd scene."""
    proc = subprocess.run(
        [sys.executable, "-c", SCENES, json.dumps(CROWD["scenario"])], cwd=checkout,
        env=_env(checkout), stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout)


def all_digests(checkout: Path) -> dict:
    quality = {f"bench quality table {k} report.json": v
               for k, v in quality_digests(checkout).items()}
    return {**quality, **crowd_digests(checkout), **scene_digests(checkout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    args = parser.parse_args(argv)

    parent = all_digests(args.parent.resolve())
    change = all_digests(args.change.resolve())
    names = list(parent | change)
    width = max(map(len, names))
    print(f"{'output':<{width}}  {'parent':<12}  {'change':<12}")
    differ = 0
    for name in names:
        a, b = parent.get(name, "-"), change.get(name, "-")
        differ += a != b
        print(f"{name:<{width}}  {a:<12}  {b:<12}{'' if a == b else '  DIFFERS'}")
    print(f"{differ} of {len(names)} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
