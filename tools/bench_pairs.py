"""Alternating benchmark pairs of two checkouts, written as a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \
        --workload offline-mr2 --seeds 1701-1710 --out BENCH_name_offline-mr2.json

Each seed runs ``perfbench/run.py --trace 0`` once in each checkout, one
process at a time: the parent first for the 1st, 3rd, ... seed and the change
first for the others. Each run's record is read from the checkout's
``.perfbench/results``. The file keeps, per side, every run's end-to-end
metrics with their median and quartiles, the summed operations, each run's
attempted count in run order beside its metrics' ``runs`` (so a run's
``peak_rss_mb`` can be read against the jobs it completed), the CPU seconds
the run's process and its children used (``resource.getrusage`` of this
script's children, read before and after the run) in all and per attempted
operation, and the source hash; the pairs the change won on each metric, where
"better" is read from ``BENCHMARK.json``; and, for each end-to-end metric and
for CPU seconds per attempted operation, each pair's ratio change/parent with
the median of those ratios; CPU seconds are a second reading of a run beside
its wall-clock figures. With ``--trace`` each seed also runs
``perfbench/run.py --trace 1`` once in each checkout, in the same order, and
the file keeps, per side, the median and quartiles of every ``per_layer``
metric of ``BENCHMARK.json``. With ``--quality-table`` the ROADMAP quality
table (``bench --preset config-1,config-2,config-3 --seeds 1,2 --duration 20``
for sr, mr1 and mr2, as ``tools/identity.py`` runs it) is run on both sides
and its report digests recorded, with the cells of each preset, kind and seed
(``QUALITY_CELLS`` of the row's ``mot`` section) read from the same reports.
With ``--timing-table`` each seed also runs ``lidarmot bench --timings`` on
the crowd scene at config-1, config-2 and config-3 once in each checkout, in
the same order, and the file keeps, per side and preset, the median over those
runs of each stage's average and worst frame time next to the scan period: the
paper's per-stage timing against its scan budget.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# The quality table's reports and the crowd scene, from the byte-identity
# script next to this one.
from identity import CROWD, lidarmot, quality_reports, short_digest

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy")
QUALITY_CELLS = ("mota", "motp", "g", "matches", "misses", "false_positives", "id_switches")
TIMING_PRESETS = "config-1,config-2,config-3"
TIMING_STAGES = ("detector_ms", "tracker_ms", "total_ms")


def seed_list(text: str) -> list[int]:
    """``1401-1410`` or ``1,5,9``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def children_cpu_s() -> float:
    """User and system CPU seconds of this process's finished children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_side(checkout: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run's record, with the CPU seconds its process used as ``cpu_s``."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
    ]
    cpu_before = children_cpu_s()
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    cpu_s = children_cpu_s() - cpu_before
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}")
    mode = "traced" if traced else "untraced"
    path = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-{mode}.json"
    record = json.loads(path.read_text())
    if not record["correct"]:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} failed its output checks")
    record["cpu_s"] = cpu_s
    return record


def cpu_per_attempted(record: dict) -> float:
    return record["cpu_s"] / record["attempted"]


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": values}


def metric_summaries(records: list[dict], metrics: list[dict]) -> dict:
    return {
        m["name"]: {
            "unit": m["unit"],
            **summary([r["metrics"][m["name"]]["value"] for r in records]),
        }
        for m in metrics
    }


def side_record(records: list[dict], metrics: list[dict]) -> dict:
    machine = records[0]["machine"]
    return {
        "git_commit": machine["git_commit"],
        "source_sha256": machine["source_sha256"],
        "attempted": sum(r["attempted"] for r in records),
        "attempted_runs": [r["attempted"] for r in records],
        "failed": sum(r["failed"] for r in records),
        "metrics": metric_summaries(records, metrics),
        "cpu_s": summary([r["cpu_s"] for r in records]),
        "cpu_s_per_attempted": summary([cpu_per_attempted(r) for r in records]),
    }


def ratios(parent: list[float], change: list[float], better: str) -> dict:
    """Each pair's ratio change/parent, in seed order, and their median."""
    runs = [c / p for p, c in zip(parent, change)]
    return {"better": better, "median": float(np.median(runs)), "runs": runs}


def pair_ratios(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """:func:`ratios` of each end-to-end metric and of CPU seconds per
    attempted operation."""
    def values(records, name):
        return [r["metrics"][name]["value"] for r in records]

    out = {m["name"]: ratios(values(parent, m["name"]), values(change, m["name"]), m["better"])
           for m in metrics}
    out["cpu_s_per_attempted"] = ratios(
        [cpu_per_attempted(r) for r in parent], [cpu_per_attempted(r) for r in change], "lower"
    )
    return out


def quality_cells(reports: dict) -> dict:
    """The quality table's cells, keyed ``PRESET KIND seed SEED``, from its
    ``report.json`` bytes per kind."""
    cells = {}
    for raw in reports.values():
        for row in json.loads(raw)["rows"]:
            key = f"{row['preset']} {row['kind']} seed {row['seed']}"
            cells[key] = {name: row["mot"][name] for name in QUALITY_CELLS}
    return cells


def timing_sections(checkout: Path) -> dict:
    """Each preset's ``timing`` section from one ``bench --timings`` run of
    the crowd scene at ``TIMING_PRESETS``."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "crowd.json", Path(tmp) / "bench"
        config.write_text(json.dumps(CROWD))
        lidarmot(checkout, "bench", "--config", config, "--preset", TIMING_PRESETS, "--timings",
                 "--out", out)
        rows = json.loads((out / "report.json").read_text())["rows"]
    return {row["preset"]: row["timing"] for row in rows}


def timing_table(runs: list[dict]) -> dict:
    """Per preset, the median over ``runs`` of each stage's ``avg`` and
    ``worst``, next to the scan period."""
    table = {}
    for preset in runs[0]:
        sections = [run[preset] for run in runs]
        table[preset] = {"t_scan_ms": sections[0]["t_scan_ms"]} | {
            stage: {stat: float(np.median([s[stage][stat] for s in sections]))
                    for stat in ("avg", "worst")}
            for stage in TIMING_STAGES
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last or a comma list")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="also one traced run per seed and side, for per-layer medians")
    parser.add_argument("--quality-table", action="store_true")
    parser.add_argument("--timing-table", action="store_true",
                        help="also one bench --timings run of the crowd scene per seed and side")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, layers = bench["end_to_end"], bench["per_layer"]
    seeds = seed_list(args.seeds)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    records: dict[str, list[dict]] = {"parent": [], "change": []}
    traces: dict[str, list[dict]] = {"parent": [], "change": []}
    timings: dict[str, list[dict]] = {"parent": [], "change": []}
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            records[side].append(run_side(sides[side], args.workload, seed, args.seconds, False))
            value = records[side][-1]["metrics"]
            print(f"seed {seed} {side}: " + ", ".join(
                f"{m['name']} {value[m['name']]['value']:.4g}" for m in metrics
            ) + f", cpu_s {records[side][-1]['cpu_s']:.4g}", flush=True)
        if args.trace:
            for side in order:
                traces[side].append(run_side(sides[side], args.workload, seed, args.seconds, True))
                print(f"seed {seed} {side} traced", flush=True)
        if args.timing_table:
            for side in order:
                timings[side].append(timing_sections(sides[side]))
                print(f"seed {seed} {side} timing table", flush=True)

    machines = {
        json.dumps({key: r["machine"][key] for key in MACHINE_KEYS}, sort_keys=True)
        for side in (*records.values(), *traces.values()) for r in side
    }
    if len(machines) != 1:
        raise SystemExit(f"runs differ in their machine record: {sorted(machines)}")
    result = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {args.seconds:g} --trace 0",
        "seeds": seeds,
        "order": "one parent run and one change run per seed, in separate processes, the "
                 "parent first for the 1st, 3rd, ... seed and the change first for the others",
        "quartiles": "numpy.percentile, linear interpolation, over the runs of one side",
        "machine": json.loads(machines.pop()),
        "parent": side_record(records["parent"], metrics),
        "change": side_record(records["change"], metrics),
    }
    if result["parent"]["git_commit"] == result["change"]["git_commit"]:
        result["change"]["note"] = (
            "git_commit is the parent's: the change ran as an uncommitted tree on top of it, "
            "which source_sha256 identifies"
        )
    if args.trace:
        result["traced_command"] = (
            f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
            f"--seconds {args.seconds:g} --trace 1, once per seed and side after the "
            "untraced pair, in the same order"
        )
        result["per_layer_note"] = (
            "simulator.raycast_scan.calls and .self_s read 0 in every traced run: the "
            "benchmark's hook rebinds simulator.raycast_scan, which no longer exists, while "
            "scenes are cast through simulator.raycast_scans (ROADMAP item 0). "
            "simulator.run_scenario_s does not cover lidarmot bench, which simulates "
            "through simulator.Scenario.stream: it reads 0 for offline-mr2, where it is "
            "unmeasured, and covers only the set-up of replay-crowd and live-crowd. "
            "evaluation.evaluate_sequence_s, .gt_frames and .hyp_frames read 0 for "
            "offline-mr2 in the same way, because lidarmot bench scores each frame as it is "
            "tracked (evaluation.MotAccumulator.update) and never calls "
            "evaluation.evaluate_sequence; evaluation.gt_poses_scanned still counts its "
            "pose lookups"
        )
        for side in sides:
            result[side]["per_layer"] = metric_summaries(traces[side], layers)
    if args.timing_table:
        result["timing_table_command"] = (
            f"lidarmot bench --config CROWD --preset {TIMING_PRESETS} --timings, with CROWD "
            f"{json.dumps(CROWD)}, once per seed and side after the pair, in the same order; "
            "each cell is the median over those runs"
        )
        for side in sides:
            result[side]["timing_table"] = timing_table(timings[side])
    wins = {}
    for m in metrics:
        sign = 1 if m["better"] == "higher" else -1
        pairs = zip(records["parent"], records["change"])
        won = sum(
            sign * (c["metrics"][m["name"]]["value"] - p["metrics"][m["name"]]["value"]) > 0
            for p, c in pairs
        )
        wins[m["name"]] = f"{won}/{len(seeds)}"
    result["change_wins"] = wins
    result["change_over_parent"] = pair_ratios(records["parent"], records["change"], metrics)
    if args.quality_table:
        reports = {side: quality_reports(path) for side, path in sides.items()}
        digests = {
            side: {kind: short_digest(raw) for kind, raw in by_kind.items()}
            for side, by_kind in reports.items()
        }
        key = ("bench --preset config-1,config-2,config-3 --seeds 1,2 --duration 20 --kind K, "
               "report.json sha256[:12]")
        cells = {side: quality_cells(by_kind) for side, by_kind in reports.items()}
        if digests["parent"] == digests["change"]:
            result["outputs_equal_on_both_sides"] = {key: digests["parent"]}
            result["quality_table"] = cells["parent"]
        else:
            result["outputs_differ"] = {key: digests}
            result["quality_table"] = cells
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
