"""Benchmark entry point.

    python3 perfbench/run.py --workload offline-mr2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root (or any checkout of it). An untraced run
(``--trace 0``) prints every end-to-end metric; a traced run (``--trace 1``)
prints every per-layer metric. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every run has a wall-clock budget: a run that exceeds it is reported as
failed, naming the workload and the stage it was in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("offline-mr2", "replay-crowd", "live-crowd")
#: A run must end within 180 s; leave room to report.
BUDGET_S = 170.0


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "lidarmot").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git; a
    checkout that is no git repository reads ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def guarded(fn, budget_s: float) -> tuple[str, object]:
    """Call ``fn`` on a daemon thread and wait at most ``budget_s``.

    Returns ``("ok", result)``, ``("error", traceback text)`` or
    ``("timeout", None)``; a timed-out call is abandoned, never joined, so a
    stage that hangs (a pipelined ``run_pipeline`` whose stage raised) cannot
    hang the benchmark.
    """
    box: dict = {}

    def target():
        try:
            box["ok"] = fn()
        except Exception:
            box["error"] = traceback.format_exc()

    worker = threading.Thread(target=target, name="workload", daemon=True)
    worker.start()
    worker.join(max(0.0, budget_s))
    if worker.is_alive():
        return "timeout", None
    return ("ok", box["ok"]) if "ok" in box else ("error", box["error"])


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}
    )


def run_one(args) -> int:
    from perfbench import workloads
    from perfbench.tracing import PER_LAYER

    seed, workload, traced = args.seed, args.workload, bool(args.trace)
    deadline = time.monotonic() + BUDGET_S
    state = workloads.Progress()
    machine = machine_record(ROOT)
    refs = workloads.RefCache(ROOT / ".perfbench" / "refs" / f"{machine['source_sha256'][:16]}.json")
    status, value = guarded(
        lambda: workloads.run(workload, ROOT, seed, args.seconds, traced, state, refs),
        deadline - time.monotonic(),
    )
    if status != "ok":
        why = f"timed out after {BUDGET_S:.0f} s" if status == "timeout" else value.rstrip()
        print(f"perfbench: {workload} failed in stage {state.stage!r}: {why}", file=sys.stderr)
        print(result_line(False, 1, 1, {}), flush=True)
        sys.stderr.flush()
        # A hung stage thread may never end; leave without joining it.
        os._exit(1)

    out, tracer = value
    mode = "traced" if traced else "untraced"
    print(f"perfbench {workload} seed {seed} ({mode})")
    print("  machine: " + json.dumps(machine, sort_keys=True))
    params = workloads.PARAMS[workload]
    print("  inputs: " + json.dumps({"seed": seed, "seconds": args.seconds, **params}, sort_keys=True))
    metrics = {}
    if traced:
        layer = workloads.per_layer(out, tracer)
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": float(layer[name]), "unit": unit}
            print(f"  {name:<40} {layer[name]:.6g} {unit}")
        tracer.write(ROOT / ".perfbench" / "traces" / f"{workload}-seed{seed}.jsonl")
    else:
        for name, unit, _ in workloads.END_TO_END:
            value, note = out.metrics[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<24} {value:.6g} {unit}  ({note})")
        for name, (value, note) in out.metrics.items():
            if name not in metrics:
                print(f"  info {name:<30} {value:.6g} {workloads.UNITS[name]}  ({note})")
        for name, value in sorted(out.info.items()):
            print(f"  info {name:<30} {value:.6g} {workloads.UNITS[name]}")
    for note in out.skipped:
        print(f"  skipped {note}")
    print(f"  operations: {out.attempted} attempted, {out.failed} failed")
    for name, ok, detail in out.checks:
        if not ok:
            print(f"  CHECK FAILED: {name} {detail}")
    print(f"  checks: {sum(ok for _, ok, _ in out.checks)}/{len(out.checks)} passed")
    record = {
        "workload": workload, "traced": traced, "machine": machine,
        "inputs": {"seed": seed, "seconds": args.seconds, **params},
        "correct": out.correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": metrics, "info": out.info, "samples": out.samples,
        "skipped": out.skipped,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in out.checks],
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-{mode}.json").write_text(json.dumps(record, indent=1))
    print(result_line(out.correct, out.attempted, out.failed, metrics), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=BUDGET_S + 10)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        correct &= last["correct"] and proc.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lidarmot benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "lidarmot" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'lidarmot'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
