"""Benchmark operations, in a fresh interpreter.

``run.py`` starts this script once per CLI command, and once per loaded
cohort for the duration protocol, because state that gazescreen keeps per
process (the AOI index's ``lru_cache``) makes a second load in the same
process a different program. The task arrives as one JSON argument, with
``t0``, the ``time.monotonic()`` reading taken just before the interpreter
was started; on Linux that clock is shared by all processes. The script
writes one JSON line with its set-up time (counted from ``t0``), the
operations' timings, the calibration time, output digest, check failures
and, when traced, per-layer metrics. Output printed by gazescreen itself is
discarded.

The calibration is a fixed piece of work that does not touch gazescreen:
parsing CSV text, small numpy array arithmetic and a pure-Python loop, the
three kinds of work gazescreen does. It runs once right after set-up and
once right after the operation, so it sees the machine in the state the
operation saw. ``run.py`` divides each time by it.

Kinds of task:

- ``duration-curve``: set-up imports the pipeline and loads the cohort; the
  operation is one ``run_duration_simulation`` call.
- ``cli``: set-up imports ``gazescreen.cli``; the operation is one CLI
  command, which loads its inputs itself as a user's run does.
- ``gen``: writes an input cohort; not timed.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np


def tree_digest(root: Path) -> str:
    """sha256 over the relative path and bytes of every file under root."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # show_config's layout varies between numpy releases
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


_CAL_TEXT = "\n".join(
    f"{i / 60:.4f},{(i * 37) % 1920}.5,{(i * 53) % 1080}.25,{i % 7}" for i in range(3000)
)
_CAL_XY = np.linspace(0.0, 1.0, 400).reshape(200, 2)


def calibrate() -> float:
    """Seconds taken by the fixed calibration work."""
    t = time.perf_counter()
    total = 0.0
    for _ in range(4):
        for line in _CAL_TEXT.splitlines():
            total += sum(float(v) for v in line.split(","))
    for _ in range(700):
        d = np.diff(_CAL_XY, axis=0)
        total += float(np.sqrt((d * d).sum(axis=1)).std())
        total += float(np.abs(_CAL_XY - _CAL_XY.mean(axis=0)).max())
    table = {}
    for i in range(240000):
        total += (i * 0.5) % 3.0
        table[i % 97] = total
    return time.perf_counter() - t


def _since_start(task) -> float:
    return time.monotonic() - task["t0"]


def run_duration_curve(task, tracer, result, ready) -> tuple[str, list]:
    from gazescreen import experiments, pipeline
    from gazescreen.core import FeatureMode

    if tracer:
        tracer.install()
    t = time.perf_counter()
    dataset = pipeline.load_dataset(task["manifest"])
    result["load_s"] = time.perf_counter() - t
    config = experiments.CvConfig(
        seed=task["seed"], repetitions=task["reps"], mode=FeatureMode.WITH_AOI, jobs=1
    )
    ready()
    t = time.perf_counter()
    report = experiments.run_duration_simulation(dataset, task["durations"], config)
    result["ops"].append(time.perf_counter() - t)
    digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()

    problems = []
    rows = report.rows
    if [r["duration_s"] for r in rows] != task["durations"]:
        problems.append(f"expected one row per duration {task['durations']}, got {rows}")
    for r in rows:
        if not (_finite(r["mean_acc"]) and 0.0 <= r["mean_acc"] <= 1.0):
            problems.append(f"non-finite or out-of-range accuracy in {r}")
        if r["n_runs"] != task["reps"]:
            problems.append(f"expected {task['reps']} runs in {r}")
    return digest, problems


def run_cli(task, tracer, result, ready) -> tuple[str, list]:
    from gazescreen import cli

    if tracer:
        tracer.install()
    out = Path(task["out"])
    ready()
    t = time.perf_counter()
    try:
        cli.main.main(args=task["args"] + ["--out", str(out)], prog_name="gazescreen",
                      standalone_mode=False)
        code = 0
    except SystemExit as e:
        code = e.code
    result["ops"].append(time.perf_counter() - t)
    if code not in (0, None):
        return "", [f"gazescreen {task['args'][0]} exited with code {code}"]
    return tree_digest(out), check_cli_output(task, out)


def check_cli_output(task, out: Path) -> list:
    """The output checks of one CLI command, with bounds set by run.py."""
    cmd, expect = task["args"][0], task["expect"]
    problems = []
    if cmd == "evaluate":
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        acc = report["mean_accuracy"]
        if not (_finite(acc) and acc >= expect["min_accuracy"]):
            problems.append(f"mean accuracy {acc} below {expect['min_accuracy']}")
        if report["n_fold_runs"] != expect["fold_runs"]:
            problems.append(f"{report['n_fold_runs']} fold runs, expected {expect['fold_runs']}")
    elif cmd == "severity":
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        mae = report["mae"]
        if not (_finite(mae) and mae <= expect["max_mae"]):
            problems.append(f"severity MAE {mae} above {expect['max_mae']}")
        if len(report["rows"]) != expect["rows"]:
            problems.append(f"{len(report['rows'])} LOOCV rows, expected {expect['rows']}")
    elif cmd == "synth" and expect.get("load"):
        from gazescreen.pipeline import load_dataset

        dataset = load_dataset(out / "manifest.yaml")
        if len(dataset.aligned) != expect["traces"]:
            problems.append(f"synth tree loads {len(dataset.aligned)} traces, "
                            f"expected {expect['traces']}")
    return problems


def run_gen(task) -> None:
    from gazescreen.synth import CohortSpec, generate_cohort

    spec = CohortSpec(n_asd=task["n_asd"], n_control=task["n_control"], seed=task["cohort_seed"])
    generate_cohort(spec, task["out"])


def main() -> int:
    task = json.loads(sys.argv[1])
    channel = sys.stdout
    sys.stdout = io.StringIO()  # gazescreen's own echo output is not measured

    def send(line: str) -> None:
        channel.write(line + "\n")
        channel.flush()

    if task["kind"] == "gen":
        run_gen(task)
        send(json.dumps({"ok": True}))
        return 0

    result = {"ops": [], "load_s": 0.0, "cal_s": 0.0}

    def ready() -> None:
        result["setup_s"] = _since_start(task)
        result["cal_s"] += calibrate()

    tracer = None
    if task["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    try:
        run = run_duration_curve if task["kind"] == "duration-curve" else run_cli
        result["digest"], result["problems"] = run(task, tracer, result, ready)
    except Exception:
        result["digest"], result["problems"] = "", [traceback.format_exc()]
    result["cal_s"] += calibrate()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = _environment()
    if tracer is not None and result["ops"]:
        result["trace"] = tracer.layer_metrics(result["load_s"] + sum(result["ops"]))
    send(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
