"""Seeded corruption fuzz of the gazescreen CLI.

Writes a 4 + 4 synthetic cohort, then runs N mutations of it. Each
mutation changes one file (the manifest, a gaze log or an AOI track) by a
token swap, a token deletion, a one-byte replacement or a truncation, runs
one of six command variants on the mutated cohort in-process, and restores
the file. A replacement writes a byte that token swaps never make: a
non-ASCII or undecodable byte, a control byte, a space, a quote, a ``#``
or a comma.

A mutation fails the fuzz on:
- an exception that escapes the command (a traceback),
- an exit code outside {0, 2, 3, 4},
- a NaN or an infinity in any output of a run that exits 0.

Usage::

    PYTHONPATH=src python tools/fuzz_cli.py --mutations 300 --seed 0

Mutation i draws only from (seed, i), so a failure is replayed with
``--only i``. Exits 1 if any mutation fails.
"""
from __future__ import annotations

import argparse
import collections
import json
import math
import random
import re
import shutil
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from gazescreen.cli import main
from gazescreen.synth import CohortSpec, generate_cohort

EXIT_CODES = {0, 2, 3, 4}
TOKEN = re.compile(rb"[^\s,:]+")
REPLACEMENTS = ["\u00e9".encode(), b"\xff", b"\0", b"\x1c", b"\t", b" ", b"\r", b'"', b"#", b","]


def variants(video_id: str) -> list[list[str]]:
    """The six command variants, without --manifest and --out."""
    return [
        ["features", "--mode", "aoi"],
        ["features", "--mode", "noaoi"],
        ["evaluate", "--seed", "1", "--reps", "2"],
        ["evaluate", "--video", video_id, "--mode", "noaoi", "--seed", "1", "--reps", "2"],
        ["duration-curve", "--durations", "3,6", "--seed", "1", "--reps", "2"],
        ["severity", "--seed", "1", "--mlp-max-epochs", "20"],
    ]


def mutate(data: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One token swap, token deletion, one-byte replacement or truncation
    of ``data``."""
    tokens = [m.span() for m in TOKEN.finditer(data)]
    kind = rng.choice(["swap", "delete", "replace", "truncate"])
    if kind == "truncate" or len(tokens) < 2:
        return "truncate", data[:rng.randrange(len(data) + 1)]
    if kind == "replace":
        i = rng.randrange(len(data))
        return "replace", data[:i] + rng.choice(REPLACEMENTS) + data[i + 1:]
    if kind == "delete":
        a, b = rng.choice(tokens)
        return "delete", data[:a] + data[b:]
    (a, b), (c, d) = sorted(rng.sample(tokens, 2))
    return "swap", data[:a] + data[c:d] + data[b:c] + data[a:b] + data[d:]


def non_finite(out: Path) -> list[str]:
    """Every output value of ``out`` that is a NaN or an infinity."""
    bad = []
    for path in sorted(out.rglob("*")):
        if path.suffix == ".csv":
            for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                for field in line.split(","):
                    try:
                        value = float(field)
                    except ValueError:
                        continue
                    if not math.isfinite(value):
                        bad.append(f"{path.name}:{line_no}: {field}")
        elif path.suffix == ".json":
            stack = [json.loads(path.read_text(encoding="utf-8"), parse_constant=float)]
            while stack:
                item = stack.pop()
                if isinstance(item, dict):
                    stack.extend(item.values())
                elif isinstance(item, list):
                    stack.extend(item)
                elif isinstance(item, float) and not math.isfinite(item):
                    bad.append(f"{path.name}: {item}")
    return bad


def run_mutation(i: int, seed: int, cohort: Path, work: Path, runner: CliRunner) -> dict:
    rng = random.Random(f"{seed}/{i}")
    files = [cohort / "manifest.yaml",
             rng.choice(sorted((cohort / "logs").iterdir())),
             rng.choice(sorted((cohort / "aoi").iterdir()))]
    victim = rng.choice(files)
    original = victim.read_bytes()
    kind, mutated = mutate(original, rng)
    args = rng.choice(variants(rng.choice(["car_pursuit", "dialog"])))
    out = work / f"out-{i}"
    victim.write_bytes(mutated)
    try:
        result = runner.invoke(main, [*args, "--manifest", str(cohort / "manifest.yaml"),
                                      "--out", str(out)])
    finally:
        victim.write_bytes(original)
    record = {"mutation": i, "file": victim.name, "kind": kind, "args": args,
              "exit": result.exit_code, "problems": []}
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        record["problems"].append(f"uncaught {type(result.exception).__name__}: "
                                  f"{result.exception}")
    elif result.exit_code not in EXIT_CODES:
        record["problems"].append(f"exit code {result.exit_code}: {result.output[-300:]}")
    elif result.exit_code == 0:
        record["problems"] += non_finite(out)
    shutil.rmtree(out, ignore_errors=True)
    return record


def main_fuzz(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mutations", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", type=int, default=None, help="run mutation i alone")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="gazescreen-fuzz-") as tmp:
        work = Path(tmp)
        cohort = work / "cohort"
        generate_cohort(CohortSpec(n_asd=4, n_control=4, seed=args.seed), cohort)
        runner = CliRunner()
        indices = range(args.mutations) if args.only is None else [args.only]
        exits = collections.Counter()
        failures = []
        for i in indices:
            record = run_mutation(i, args.seed, cohort, work, runner)
            exits[record["exit"]] += 1
            if record["problems"]:
                failures.append(record)
                print(json.dumps(record), file=sys.stderr)
    print(f"{len(indices)} mutations, seed {args.seed}; exits: "
          + ", ".join(f"{code}: {n}" for code, n in sorted(exits.items()))
          + f"; failures: {len(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main_fuzz())
