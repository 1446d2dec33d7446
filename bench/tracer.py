"""Span tracing for the benchmark's traced runs.

The tracer wraps gazescreen's public functions from outside the package: it
replaces every module attribute that is bound to a traced function, so a
call through ``gazescreen.pipeline.extract`` (bound by ``from .features import
extract``) is recorded exactly like one through ``gazescreen.features.extract``.
Nothing under ``src/`` changes.

Spans are kept in memory as ``[name, start, end, parent, failed]`` and turned
into per-layer self times and counts by :meth:`Tracer.layer_metrics`.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

# Traced functions, by the module that defines them. A span is named
# "<module>.<function>" whichever module's binding the caller went through.
TRACED = {
    "ingest": ("load_manifest", "parse_gaze_log", "align", "parse_aoi_track"),
    "pipeline": ("load_dataset", "extract_features", "collect_extraction_failures"),
    "features": (
        "extract",
        "feature_std_gaze",
        "feature_std_diff",
        "feature_std_manhattan",
        "feature_rmse_aoi",
        "feature_delay",
    ),
    "experiments": (
        "run_duration_simulation",
        "run_classification_cv",
        "run_severity_loocv",
        "stratified_folds",
        "_draw_windows",
    ),
    "learn": ("svm_train", "svm_predict", "mlp_train", "mlp_loss_and_grads", "mlp_predict"),
    "synth": ("generate_trace_rows", "generate_aoi_path", "generate_cohort"),
}
CLI_COMMANDS = ("synth", "features", "evaluate", "severity")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index, failed]
        self._stack: list[int] = []
        self.extract_windows: list[tuple] = []  # (Window, fps, n_frames)
        self.gaze_log_paths: list[str] = []
        self.svm_models: list[tuple[bool, float]] = []  # (converged, final KKT violation)
        self.synth_rows = 0

    def wrap(self, fn, name: str, on_result=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                rec[4] = 1
                raise
            else:
                rec[2] = clock()
            finally:
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of a traced function in the loaded
        gazescreen modules, and the callbacks of the CLI commands."""
        hooks = {
            "features.extract": lambda a, r: self.extract_windows.append(
                (a[2], a[0].fps, a[0].n_frames)
            ),
            "ingest.parse_gaze_log": lambda a, r: self.gaze_log_paths.append(str(a[0])),
            "learn.svm_train": lambda a, r: self.svm_models.append(
                (bool(r.converged), float(r.final_kkt_violation))
            ),
            "synth.generate_trace_rows": lambda a, r: self._count_rows(r),
        }
        package = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("gazescreen.") and mod is not None
        }
        originals = {}
        for mod_name, fn_names in TRACED.items():
            mod = package.get(mod_name)
            if mod is None:
                continue
            for fn_name in fn_names:
                fn = getattr(mod, fn_name)
                span = f"{mod_name}.{fn_name}"
                originals[id(fn)] = (fn, self.wrap(fn, span, hooks.get(span)))
        for mod in package.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(mod, attr, originals[id(value)][1])
        cli = package.get("cli")
        if cli is not None:
            for cmd in CLI_COMMANDS:
                command = cli.main.commands[cmd]
                command.callback = self.wrap(command.callback, f"cli.{cmd}")

    def _count_rows(self, rows) -> None:
        self.synth_rows += len(rows)

    def layer_metrics(self, traced_wall_s: float) -> dict:
        """Per-span-name self time, inclusive time, calls and failures, plus
        the part of ``traced_wall_s`` that no span covers. Self times and
        uncovered time add up to ``traced_wall_s`` by construction; ``top_s``
        and ``min_self_s`` let the caller check that the spans fit in it."""
        n = len(self.spans)
        child_s = [0.0] * n
        top_s = 0.0
        for name_id, start, end, parent, _failed in self.spans:
            if parent < 0:
                top_s += end - start
            else:
                child_s[parent] += end - start
        by_name: dict[str, dict] = {}
        min_self_s = 0.0
        for i, (name_id, start, end, parent, failed) in enumerate(self.spans):
            agg = by_name.setdefault(
                self.names[name_id],
                {"calls": 0, "self_s": 0.0, "total_s": 0.0, "failed": 0},
            )
            self_s = (end - start) - child_s[i]
            min_self_s = min(min_self_s, self_s)
            agg["calls"] += 1
            agg["self_s"] += self_s
            agg["total_s"] += end - start
            agg["failed"] += failed
        draw = {i for i, name in enumerate(self.names) if name == "experiments._draw_windows"}
        attempts = sum(
            1
            for name_id, _s, _e, parent, _f in self.spans
            if self.names[name_id] == "pipeline.extract_features"
            and parent >= 0
            and self.spans[parent][0] in draw
        )
        return {
            "spans": by_name,
            "span_count": n,
            "uncovered_s": traced_wall_s - top_s,
            "top_s": top_s,
            "min_self_s": min_self_s,
            "window_attempts": attempts,
            "frames": _count_frames(self.extract_windows),
            "gaze_rows": _count_gaze_rows(self.gaze_log_paths),
            "svm_nonconverged": sum(1 for ok, _v in self.svm_models if not ok),
            "svm_max_kkt_violation": max((v for _ok, v in self.svm_models), default=0.0),
            "synth_rows": self.synth_rows,
        }


def _count_frames(windows: list[tuple]) -> int:
    from gazescreen.features import frame_range

    total = 0
    for w, fps, n_frames in windows:
        lo, hi = frame_range(w, fps, n_frames)
        total += max(0, hi - lo)
    return total


def _count_gaze_rows(paths: list[str]) -> int:
    """Data rows of each parsed gaze log, counted from the file itself."""
    per_file: dict[str, int] = {}
    total = 0
    for p in paths:
        if p not in per_file:
            with Path(p).open("rb") as fh:
                per_file[p] = max(0, sum(1 for _ in fh) - 1)
        total += per_file[p]
    return total
