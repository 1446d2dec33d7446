"""gazescreen benchmark: wall time of CLI commands and protocol calls.

Usage, from the root of a checkout:

    python3 bench/run.py --workload duration-curve --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Workloads (the reasons are in bench/README.md and BENCHMARK.json):

- ``duration-curve``: load a 12 + 8 cohort in set-up, then time
  ``run_duration_simulation`` over 3..18 s windows in WITH_AOI mode.
- ``cold-evaluate``, ``cold-severity``: time one ``gazescreen`` command
  (``--mode aoi``) on the same cohort, loading it as a user's run does.
- ``synth``: time ``gazescreen synth`` of a 12 + 8 cohort into a fresh
  directory.

``--seed`` is the protocol seed (CV splits, windows, MLP initialisation) on
every workload but ``synth``, and the cohort seed on ``synth``. The input
cohort has seed 2024. They are generated before any timing, cached under
``.bench_cache/`` and checked against the digests in ``bench/inputs.json``.

Every worker is a fresh interpreter (``bench/worker.py``), and one runs at a
time, with BLAS pinned to one thread. Workers repeat for about ``--seconds``,
and the end-to-end metrics are medians over them. With ``--trace 1`` the run
alternates untraced and traced workers and reports per-layer self times and
counts instead of the end-to-end metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A human-readable table and the environment come
before it, and the full record is written to ``.bench_out/results/``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import tree_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"
# A cold-<command> workload runs one gazescreen CLI command per worker.
WORKLOADS = ("duration-curve", "cold-evaluate", "cold-severity", "synth")
WORKER_TIMEOUT_S = 120.0
# Seconds that the worker's calibration (two passes of fixed work, see
# worker.py) takes at the reference speed. op_s and setup_s are scaled to it.
CAL_REF_S = 0.25
# One BLAS thread, and a fixed hash seed so that string hashing (and with it
# the AOI index's lru_cache) behaves the same in every interpreter.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclasses.dataclass(frozen=True)
class Cohort:
    """A synthetic input cohort, with the default four videos."""

    name: str  # key of its digest in bench/inputs.json
    seed: int
    n_asd: int
    n_control: int
    n_videos: int = 4

    @property
    def traces(self) -> int:
        return (self.n_asd + self.n_control) * self.n_videos

    def spec_yaml(self) -> str:
        return f"n_asd: {self.n_asd}\nn_control: {self.n_control}\n"


@dataclasses.dataclass(frozen=True)
class Params:
    """Sizes of one benchmark configuration."""

    cohort: Cohort  # read by every workload but synth, which writes this spec
    durations: tuple
    duration_reps: int
    evaluate_reps: int
    min_accuracy: float  # acceptance criterion 5
    max_mae: float  # acceptance criterion 8
    min_workers: int


# 12 + 8 viewers instead of the default 35 + 25, so that each operation takes
# at most a few seconds and a run holds enough of them for a steady median
# (see README.md).
FULL = Params(
    cohort=Cohort("medium", 2024, 12, 8),
    durations=(3.0, 6.0, 9.0, 12.0, 15.0, 18.0),
    duration_reps=1,
    evaluate_reps=100,
    min_accuracy=0.90,
    max_mae=3.0,
    min_workers=3,
)
# Structure-only configuration for bench/tests: the accuracy bounds of the
# acceptance criteria are not expected to hold for 6 + 6 viewers.
SMOKE = Params(
    cohort=Cohort("smoke", 11, 6, 6),
    durations=(3.0, 6.0),
    duration_reps=1,
    evaluate_reps=1,
    min_accuracy=0.0,
    max_mae=float("inf"),
    min_workers=1,
)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- workers


def run_worker(task: dict, cwd: Path, log: Path) -> dict:
    """Run one worker and return its result. The worker times its own
    set-up from the moment just before its interpreter starts, so set-up
    includes interpreter start and imports."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **WORKER_ENV)
    with log.open("wb") as err:
        task = dict(task, t0=time.monotonic())
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(task)],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err,
        )
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"problems": [f"worker timed out after {WORKER_TIMEOUT_S:.0f}s"]}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = out.decode(errors="replace").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = log.read_text(errors="replace")[-2000:]
        return {"problems": [f"worker exited {proc.returncode} without a result: {tail}"]}
    if proc.returncode != 0:
        result.setdefault("problems", []).append(f"worker exited {proc.returncode}")
    return result


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ---------------------------------------------------------------- inputs


def source_digest() -> str:
    return tree_digest(SRC / "gazescreen")


def prepare_cohort(spec: Cohort, src_digest: str) -> tuple[Path, str]:
    """Generate (or reuse) an input cohort and check its digest against
    bench/inputs.json. Returns (cohort dir, digest)."""
    key = f"{spec.name}-{spec.seed}-{src_digest[:16]}"
    cohort = CACHE / key
    if not (cohort / "manifest.yaml").is_file():
        tmp = CACHE / f"{key}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        task = {"kind": "gen", "n_asd": spec.n_asd, "n_control": spec.n_control,
                "cohort_seed": spec.seed, "out": str(tmp)}
        result = run_worker(task, tmp, CACHE / f"{key}.gen.log")
        if not result.get("ok"):
            raise BenchError(f"generating the {spec.name} cohort failed: {result}")
        shutil.rmtree(cohort, ignore_errors=True)
        tmp.rename(cohort)
    digest = tree_digest(cohort)
    recorded = json.loads((BENCH / "inputs.json").read_text(encoding="utf-8"))[spec.name]
    if digest != recorded:
        raise BenchError(
            f"input cohort {spec.name!r} (seed {spec.seed}) has digest {digest}, "
            f"bench/inputs.json records {recorded}: synth output changed, so every "
            "workload's input changed"
        )
    return cohort, digest


# ---------------------------------------------------------------- operations


@dataclasses.dataclass
class Ctx:
    params: Params
    seed: int
    cohort: Path
    run_dir: Path
    synth_spec: str


def worker_duration_curve(ctx: Ctx, i: int, traced: bool) -> dict:
    p = ctx.params
    task = {"kind": "duration-curve", "trace": traced, "manifest": "manifest.yaml",
            "durations": list(p.durations), "reps": p.duration_reps, "seed": ctx.seed}
    result = run_worker(task, ctx.cohort, ctx.run_dir / f"worker{i}.log")
    return dict(result, command="duration_curve")


def worker_cli(ctx: Ctx, i: int, traced: bool, command: str) -> dict:
    p, c = ctx.params, ctx.params.cohort
    args = {
        "evaluate": ["evaluate", "--manifest", "manifest.yaml", "--mode", "aoi",
                     "--seed", str(ctx.seed), "--reps", str(p.evaluate_reps), "--jobs", "1"],
        "severity": ["severity", "--manifest", "manifest.yaml", "--mode", "aoi",
                     "--seed", str(ctx.seed)],
        "synth": ["synth", "--spec", ctx.synth_spec, "--seed", str(ctx.seed)],
    }[command]
    expect = {
        "evaluate": {"min_accuracy": p.min_accuracy, "fold_runs": 3 * p.evaluate_reps},
        "severity": {"max_mae": p.max_mae, "rows": c.n_asd},
        # loading one synth tree per run is enough: the others must match its digest
        "synth": {"load": i == 0, "traces": c.traces},
    }[command]
    out = ctx.run_dir / f"worker{i}-{command}"
    task = {"kind": "cli", "trace": traced, "args": args, "out": str(out), "expect": expect}
    cwd = ctx.run_dir if command == "synth" else ctx.cohort
    result = run_worker(task, cwd, ctx.run_dir / f"worker{i}-{command}.log")
    result.update(command=command,
                  bytes_written=dir_bytes(out) if out.is_dir() else 0)
    shutil.rmtree(out, ignore_errors=True)
    return result


def run_one(workload: str, ctx: Ctx, i: int, traced: bool) -> dict:
    """One worker of the workload, and its result."""
    if workload == "duration-curve":
        return worker_duration_curve(ctx, i, traced)
    return worker_cli(ctx, i, traced, workload.removeprefix("cold-"))


def measure(ctx: Ctx, workload: str, seconds: float, trace: bool) -> dict:
    """Run workers one after another for about ``seconds``: once the run
    holds ``min_workers``, it ends when one more worker of median length
    would pass the deadline. With tracing, workers alternate untraced and
    traced, and the run ends after a traced one when the next pair would
    not fit."""
    workers, traced, walls = [], [], []
    start = time.perf_counter()
    while True:
        traced.append(trace and len(workers) % 2 == 1)
        t = time.perf_counter()
        workers.append(run_one(workload, ctx, len(workers), traced[-1]))
        walls.append(time.perf_counter() - t)
        left = seconds - (time.perf_counter() - start)
        if trace:
            done = traced[-1] and 2 * median(walls) > left
        else:
            done = len(workers) >= ctx.params.min_workers and median(walls) > left
        if done:
            break
    return {"workers": workers, "traced": traced, "elapsed_s": time.perf_counter() - start}


# ---------------------------------------------------------------- metrics


def median(values):
    return statistics.median(values) if values else 0.0


def check_digests(workers: list[dict], reference: dict) -> None:
    """Every operation of a run has the same inputs, so each command's
    output must be byte-identical across them (acceptance criterion 9),
    traced or not. ``reference`` pins a digest known in advance."""
    first = dict(reference)
    for r in workers:
        if r.get("digest"):
            want = first.setdefault(r["command"], r["digest"])
            if r["digest"] != want:
                r["problems"].append(f"{r['command']} output digest {r['digest']} != {want}")


def worker_trace(r: dict) -> dict:
    """The per-layer record of one traced worker, with its wall time and
    the bytes it wrote."""
    tr = dict(r["trace"], wall_s=r["load_s"] + sum(r["ops"]), synth_bytes=0, cli_bytes=0)
    tr["synth_bytes" if r["command"] == "synth" else "cli_bytes"] = r.get("bytes_written", 0)
    return tr


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(tr: dict) -> dict:
    """Per-layer metrics of one traced worker, by BENCHMARK.json name.
    A layer the workload does not reach reads 0."""
    spans = tr["spans"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    draws = span("experiments._draw_windows", "calls") - span("experiments._draw_windows", "failed")
    special = {
        "features.frames": tr["frames"],
        "features.windows_per_s": _ratio(span("features.extract", "calls"),
                                         span("features.extract", "total_s")),
        "experiments.window_attempts": tr["window_attempts"],
        "experiments.window_useful_ratio": _ratio(draws, tr["window_attempts"]),
        "ingest.gaze_rows": tr["gaze_rows"],
        "ingest.gaze_rows_per_s": _ratio(tr["gaze_rows"], span("ingest.parse_gaze_log", "total_s")),
        "learn.svm_train.nonconverged": tr["svm_nonconverged"],
        "learn.svm_train.max_kkt_violation": tr["svm_max_kkt_violation"],
        "synth.rows": tr["synth_rows"],
        "synth.bytes_written": tr["synth_bytes"],
        "cli.bytes_written": tr["cli_bytes"],
        "trace.wall_s": tr["wall_s"],
        "trace.uncovered_s": tr["uncovered_s"],
        "trace.spans": tr["span_count"],
    }
    out = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in special:
            out[name] = special[name]
        elif name != "trace.overhead_s":
            layer, field = name.rsplit(".", 1)
            out[name] = span(layer, field)
    return out


# Count metrics that must repeat exactly between traced workers of one run.
EXACT_COUNTS = ("features.extract.calls", "learn.svm_train.calls",
                "learn.mlp_loss_and_grads.calls", "experiments.window_attempts", "synth.rows")


def summarize(run: dict, reference: dict) -> dict:
    workers, traced = run["workers"], run["traced"]
    for r in workers:
        r.setdefault("problems", [])
        r.setdefault("ops", [])
    check_digests(workers, reference)
    summary = {
        "attempted": len(workers),
        "failed": sum(1 for r in workers if r["problems"] or not r["ops"]),
        "problems": [p for r in workers for p in r["problems"]],
    }
    plain = [r for r, t in zip(workers, traced) if not t and not r["problems"]]
    ops = [t for r in plain for t in r["ops"]]
    cals = [r["cal_s"] for r in plain]
    rss = [r["peak_rss_mb"] for r in plain]
    summary["command"] = {"name": f"{workers[0]['command']}_s", "median": median(ops),
                          "min": min(ops, default=0.0), "samples": ops}
    summary["raw"] = {"setup_s": median([r["setup_s"] for r in plain]),
                      "cal_s": median(cals)}
    # Each worker's times, scaled by its own calibration: the shared machine
    # drifts by tens of percent over minutes, and the calibration drifts with
    # it. Medians, because fast and slow spells of a second or two come and
    # go within a run (see README.md).
    scaled_ops = [t * CAL_REF_S / r["cal_s"] for r in plain for t in r["ops"]]
    scaled_setups = [r["setup_s"] * CAL_REF_S / r["cal_s"] for r in plain]
    summary["end_to_end"] = {"op_s": median(scaled_ops), "setup_s": median(scaled_setups),
                             "peak_rss_mb": median(rss)}
    summary["samples"] = {"op_s": scaled_ops, "setup_s": scaled_setups, "peak_rss_mb": rss}
    if any(traced):
        trace_summary(summary, [r for r, t in zip(workers, traced) if t], plain)
    return summary


def trace_summary(summary: dict, traced_workers: list, plain_workers: list) -> None:
    """Per-layer medians over the traced workers, and the tracing overhead
    against the untraced workers of the same run."""
    per_worker = []
    for r in traced_workers:
        if "trace" not in r:
            continue
        tr = worker_trace(r)
        # The worker times its phases on its own clock, so spans that ran
        # outside them, or a child longer than its parent, show up here.
        if tr["top_s"] > tr["wall_s"]:
            summary["problems"].append(
                f"top-level spans cover {tr['top_s']} s, more than the {tr['wall_s']} s "
                "timed around them"
            )
        if tr["min_self_s"] < 0:
            summary["problems"].append(f"a span has negative self time {tr['min_self_s']}")
        per_worker.append(layer_values(tr))
    for name in EXACT_COUNTS:
        if len({v[name] for v in per_worker}) > 1:
            summary["problems"].append(f"{name} differs between traced workers")
    # untraced wall of one worker: median load plus median call
    plain_wall = median([r["load_s"] for r in plain_workers]) + median(
        [t for r in plain_workers for t in r["ops"]]
    )
    layers = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            layers[name] = median([v["trace.wall_s"] for v in per_worker]) - plain_wall
        else:  # an observed value, so counts stay whole numbers
            layers[name] = statistics.median_low([v[name] for v in per_worker]) if per_worker else 0
    summary["per_layer"] = layers
    summary["spans"] = next((r["trace"]["spans"] for r in traced_workers if "trace" in r), {})


# ---------------------------------------------------------------- environment


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines() if packed.is_file() else []:
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
        return "unknown"
    return ref


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(src_digest: str) -> dict:
    return {
        "git_sha": git_sha(),
        "source_digest": src_digest,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "worker_env": WORKER_ENV,
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------- main


def print_table(workload: str, seed: int, trace: bool, summary: dict, env: dict) -> None:
    e2e = SPEC["end_to_end"]
    print(f"== workload {workload}  seed {seed}  trace {int(trace)}  "
          f"operations {summary['attempted']}")
    print(f"   git {env['git_sha']}  nproc {env['nproc']}  cpu {env['cpu_model']}  "
          f"python {env['python']}  numpy {env.get('numpy')}  blas {env.get('blas')}  "
          f"BLAS threads {WORKER_ENV['OPENBLAS_NUM_THREADS']}  "
          f"loadavg {env['loadavg_at_start'][0]:.2f}")
    for m in e2e:
        n = len(summary["samples"][m["name"]])
        print(f"   {m['name']:<22} {summary['end_to_end'][m['name']]:>12.4f} {m['unit']:<6}"
              f" median of {n}")
    c, raw = summary["command"], summary["raw"]
    print(f"   {c['name']:<22} {c['median']:>12.4f} s      median of {len(c['samples'])}"
          f" (min {c['min']:.4f}), unscaled")
    print(f"   {'setup_s unscaled':<22} {raw['setup_s']:>12.4f} s      median")
    print(f"   {'calibration':<22} {raw['cal_s']:>12.4f} s      median"
          f" (op_s and setup_s are scaled by {CAL_REF_S} s over it)")
    frac = summary["failed"] / summary["attempted"]
    print(f"   {'failed_frac':<22} {frac:>12.4f} ratio  "
          f"{summary['failed']} of {summary['attempted']}")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, value in summary.get("per_layer", {}).items():
        print(f"   {name:<40} {value:>14.6g} {units[name]}")
    for p in summary["problems"]:
        print(f"   PROBLEM: {p.strip()}")


def run_workload(workload: str, params: Params, seed: int, seconds: float, trace: bool,
                 src_digest: str) -> dict:
    spec = params.cohort
    cohort, cohort_digest = prepare_cohort(spec, src_digest)
    run_dir = OUT / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment(src_digest)
    try:
        synth_spec = run_dir / "spec.yaml"
        synth_spec.write_text(spec.spec_yaml(), encoding="utf-8")
        ctx = Ctx(params, seed, cohort, run_dir, str(synth_spec))
        # synth with the input cohort's own seed must reproduce it byte for byte
        reference = {"synth": cohort_digest} if workload == "synth" and seed == spec.seed else {}
        run = measure(ctx, workload, seconds, trace)
        summary = summarize(run, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    workers = run["workers"]
    for key in ("python", "numpy", "blas"):
        env[key] = workers[0].get("environment", {}).get(key)
    digests = {}
    for r in workers:
        digests.setdefault(r["command"], r.get("digest"))
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "params": dataclasses.asdict(params), "environment": env,
        "input_digest": cohort_digest, "output_digests": digests,
        "elapsed_s": run["elapsed_s"], "summary": summary,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{spec.name}-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8"
    )
    print_table(workload, seed, trace, summary, env)
    print(f"   input digest {cohort_digest}")
    for command, d in sorted(digests.items()):
        print(f"   output digest {command:<16} {d}")
    metrics_spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    values = summary["per_layer"] if trace else summary["end_to_end"]
    return {
        "correct": summary["failed"] == 0 and not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="6 + 6 cohort, one repetition, short windows (bench/tests)")
    args = ap.parse_args(argv)

    if not (SRC / "gazescreen" / "__init__.py").is_file():
        print(f"error: no gazescreen sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else SPEC["run_seconds"]
    params = SMOKE if args.smoke else FULL
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        src_digest = source_digest()
        lines = {w: run_workload(w, params, args.seed, seconds, bool(args.trace), src_digest)
                 for w in workloads}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

if __name__ == "__main__":
    sys.exit(main())
