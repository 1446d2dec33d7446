"""Command-line entry point.

Subcommands: synth, features, evaluate, duration-curve, severity.
All randomness flows from the mandatory --seed flag; outputs land only in
the designated --out directory and embed the fully resolved run config.

Exit codes: 2 config error, 3 I/O error, 4 pipeline/data error.
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import __version__
from .core import FeatureMode
from .errors import ConfigError, GazeScreenError, IoFailure
from .experiments import (
    CvConfig,
    cv_plan,
    run_classification_cv,
    run_duration_simulation,
    run_severity_loocv,
    severity_plan,
)
from .features import full_window
from .ingest import load_manifest
from .learn import MlpConfig
from .pipeline import collect_extraction_failures, extract_features, load_dataset
from .synth import CohortSpec, generate_cohort, load_cohort_spec

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PIPELINE = 4


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_report(out: Path, report_dict: dict, run_config: dict) -> None:
    report_dict = dict(report_dict)
    report_dict["run_config"] = run_config
    report_dict["gazescreen_version"] = __version__
    (out / "report.json").write_text(
        json.dumps(report_dict, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(EXIT_CONFIG)
        except (IoFailure, OSError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(EXIT_IO)
        except GazeScreenError as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(EXIT_PIPELINE)

    return wrapper


def _parse_mode(mode: str) -> FeatureMode:
    return FeatureMode.WITH_AOI if mode == "aoi" else FeatureMode.NO_AOI


def _ensure_out(out: str) -> Path:
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".write_probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as e:
        raise IoFailure(f"output directory {path} is not writable: {e}") from e
    return path


@click.group()
@click.version_option(__version__)
def main():
    """Gaze-analytics screening pipeline."""


seed_option = click.option("--seed", type=int, required=True, help="Root RNG seed (mandatory).")
out_option = click.option("--out", type=click.Path(), required=True, help="Output directory.")
manifest_option = click.option(
    "--manifest", type=click.Path(dir_okay=False), required=True
)
mode_option = click.option(
    "--mode", type=click.Choice(["aoi", "noaoi"]), default="aoi", show_default=True
)

# the options of the repeated-CV commands, in help order
CV_OPTIONS = (
    manifest_option,
    mode_option,
    seed_option,
    click.option("--reps", type=int, default=100, show_default=True),
    click.option("--svm-c", type=float, default=1.0, show_default=True),
    click.option("--gamma", type=float, default=None,
                 help="Kernel scale (default: scale heuristic)."),
    click.option("--coef0", type=float, default=0.0, show_default=True),
    click.option("--jobs", type=int, default=1, show_default=True),
    out_option,
)


def cv_command(fn):
    """Declare ``CV_OPTIONS`` on a repeated-CV command and build its
    ``CvConfig`` inside ``handles_errors``, so a bad value exits 2 before
    any file is read. ``fn`` is called as ``fn(manifest, config, out,
    **own_options)``; an own ``video`` option sets ``video_selection``."""

    @functools.wraps(fn)
    def build(manifest, mode, seed, reps, svm_c, gamma, coef0, jobs, out, video="all", **own):
        config = CvConfig(seed=seed, repetitions=reps, mode=_parse_mode(mode),
                          video_selection=video, C=svm_c, gamma=gamma, coef0=coef0, jobs=jobs)
        return fn(manifest, config, out, **own)

    command = handles_errors(build)
    for option in reversed(CV_OPTIONS):
        command = option(command)
    return command


@main.command()
@click.option("--spec", default="default", show_default=True,
              help="Cohort spec YAML, or 'default'.")
@seed_option
@out_option
@handles_errors
def synth(spec, seed, out):
    """Generate a synthetic cohort dataset."""
    if spec == "default":
        cohort = CohortSpec(seed=seed)
    else:
        cohort = load_cohort_spec(spec, seed)
    out_path = _ensure_out(out)
    manifest_path = generate_cohort(cohort, out_path)
    n_logs = (cohort.n_asd + cohort.n_control) * len(cohort.videos)
    click.echo(f"wrote {manifest_path}")
    click.echo(
        f"participants: {cohort.n_asd} ASD + {cohort.n_control} CONTROL; "
        f"videos: " + ", ".join(f"{m.video_id} ({m.duration_s:g}s)" for m in cohort.videos)
    )
    click.echo(f"gaze logs: {n_logs}")


@main.command()
@manifest_option
@mode_option
@out_option
@handles_errors
def features(manifest, mode, out):
    """Extract full-video features to features.csv."""
    out_path = _ensure_out(out)
    fmode = _parse_mode(mode)
    dataset = load_dataset(manifest, aoi=fmode is FeatureMode.WITH_AOI)
    failures, values = collect_extraction_failures(dataset, fmode)
    if failures:
        for pid, vid, error in failures:
            click.echo(f"failed: {pid}/{vid}: {error}", err=True)
        sys.exit(EXIT_PIPELINE)
    rows = []
    for (pid, vid), row in values.items():
        w = full_window(dataset.stacks[vid])
        vals = row.tolist() + [""] * (5 - len(row))
        rows.append([pid, vid, fmode.value, w.start_s, w.duration_s, *vals])
    _write_csv(
        out_path / "features.csv",
        ["participant_id", "video_id", "mode", "window_start_s", "window_dur_s",
         "f1", "f2", "f3", "f4", "f5"],
        rows,
    )
    click.echo(f"wrote {out_path / 'features.csv'} ({len(rows)} rows)")


@main.command()
@click.option("--video", default="all", show_default=True,
              help="Single video id, or 'all' for concatenation.")
@cv_command
def evaluate(manifest, config, out):
    """Repeated stratified 3-fold classification CV."""
    out_path = _ensure_out(out)
    dataset = load_dataset(**cv_plan(load_manifest(manifest), config))
    X = extract_features(dataset, config.mode)
    participants = dataset.participants
    # the CV phase reads only X and the participants: release the logs it
    # would otherwise hold while every fold's training data is allocated
    del dataset
    report = run_classification_cv(participants, X, config)
    _write_csv(
        out_path / "cv_folds.csv",
        ["rep", "fold", "accuracy", "n_test"],
        [[r["rep"], r["fold"], r["accuracy"], r["n_test"]] for r in report.fold_rows],
    )
    _write_report(out_path, report.to_dict(), _run_config_dict(manifest, config))
    click.echo(
        f"mean accuracy {report.mean_accuracy:.4f} +- {report.std_accuracy:.4f} "
        f"({len(report.fold_rows)} fold runs)"
    )


@main.command("duration-curve")
@click.option("--durations", default="3,6,9,12,15,18", show_default=True,
              help="Comma-separated window lengths in seconds.")
@cv_command
def duration_curve(manifest, config, out, durations):
    """Accuracy vs observation time on random shared windows."""
    out_path = _ensure_out(out)
    try:
        duration_list = [float(d) for d in durations.split(",") if d.strip()]
    except ValueError:
        raise ConfigError(f"bad --durations value {durations!r}") from None
    if not duration_list:
        raise ConfigError("no durations given")
    dataset = load_dataset(**cv_plan(load_manifest(manifest), config, duration_list))
    report = run_duration_simulation(dataset, duration_list, config)
    _write_csv(
        out_path / "duration_curve.csv",
        ["duration_s", "mean_acc", "std_acc", "n_runs"],
        [[r["duration_s"], r["mean_acc"], r["std_acc"], r["n_runs"]] for r in report.rows],
    )
    _write_report(out_path, report.to_dict(), _run_config_dict(manifest, config))
    for r in report.rows:
        click.echo(f"{r['duration_s']:g}s: {r['mean_acc']:.4f} +- {r['std_acc']:.4f}")


@main.command()
@manifest_option
@mode_option
@seed_option
@click.option("--mlp-max-epochs", type=int, default=200, show_default=True)
@click.option("--mlp-lr", type=float, default=1e-3, show_default=True)
@out_option
@handles_errors
def severity(manifest, mode, seed, mlp_max_epochs, mlp_lr, out):
    """Leave-one-out CARS severity regression over scored participants."""
    out_path = _ensure_out(out)
    config = CvConfig(seed=seed, mode=_parse_mode(mode))
    mlp_cfg = MlpConfig(max_epochs=mlp_max_epochs, lr=mlp_lr)
    dataset = load_dataset(**severity_plan(load_manifest(manifest), config))
    X = extract_features(dataset, config.mode)
    participants = dataset.participants
    # the MLP phase reads only X and the participants: release the logs it
    # would otherwise hold while the folds' training state is allocated
    del dataset
    report = run_severity_loocv(participants, X, config, mlp_config=mlp_cfg)
    _write_csv(
        out_path / "severity_loocv.csv",
        ["participant_id", "true_cars", "predicted_cars", "abs_err"],
        [[r["participant_id"], r["true_cars"], r["predicted_cars"], r["abs_err"]]
         for r in report.rows],
    )
    _write_report(out_path, report.to_dict(), _run_config_dict(manifest, config))
    click.echo(f"MAE {report.mae:.3f} +- {report.std_abs_err:.3f} ({len(report.rows)} participants)")


def _run_config_dict(manifest: str, config: CvConfig) -> dict:
    d = config.to_dict()
    d["manifest"] = str(manifest)
    # --jobs is deliberately not echoed: it has no effect
    return d


if __name__ == "__main__":
    main()
