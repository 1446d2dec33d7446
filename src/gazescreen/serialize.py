"""Self-describing text serialization of trained models.

The format is line-oriented so models can be diffed and audited:
a `key: value` header followed by named arrays whose rows are
space-separated decimals (repr precision, row-major).
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError
from .learn import KERNEL_DEGREE, MlpConfig, MlpModel, SvmModel

MAGIC = "gazescreen-model v1"


def _format_matrix(name: str, arr: np.ndarray) -> list[str]:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    lines = [f"array {name} {arr.shape[0]} {arr.shape[1]}"]
    for row in arr:
        lines.append(" ".join(repr(float(v)) for v in row))
    return lines


def save_model(model, path) -> None:
    lines = [MAGIC]
    if isinstance(model, SvmModel):
        lines += [
            "kind: svm",
            f"degree: {KERNEL_DEGREE}",
            f"gamma: {model.gamma!r}",
            f"coef0: {model.coef0!r}",
            f"C: {model.C!r}",
            f"bias: {model.bias!r}",
            f"converged: {int(model.converged)}",
            f"final_kkt_violation: {model.final_kkt_violation!r}",
        ]
        lines += _format_matrix("dual_coef", model.dual_coef)
        lines += _format_matrix("support_vectors", model.support_vectors)
    elif isinstance(model, MlpModel):
        cfg = model.config
        lines += [
            "kind: mlp",
            f"hidden: {cfg.hidden}",
            f"l2: {cfg.l2!r}",
            f"lr: {cfg.lr!r}",
            f"beta1: {cfg.beta1!r}",
            f"beta2: {cfg.beta2!r}",
        ]
        lines += _format_matrix("W1", model.W1)
        lines += _format_matrix("b1", model.b1)
        lines += _format_matrix("W2", model.W2)
        lines += _format_matrix("b2", model.b2)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse(path):
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text or text[0] != MAGIC:
        raise ConfigError(f"{path}: not a {MAGIC} file")
    fields = {}
    arrays = {}
    i = 1
    while i < len(text):
        line = text[i]
        if line.startswith("array "):
            _, name, rows, cols = line.split()
            rows, cols = int(rows), int(cols)
            data = [
                [float(v) for v in text[i + 1 + r].split()] for r in range(rows)
            ]
            arrays[name] = np.array(data).reshape(rows, cols)
            i += 1 + rows
        elif ": " in line:
            key, val = line.split(": ", 1)
            fields[key] = val
            i += 1
        else:
            i += 1
    return fields, arrays


def load_model(path):
    fields, arrays = _parse(path)
    kind = fields.get("kind")
    if kind == "svm":
        if fields.get("degree", "").strip() != str(KERNEL_DEGREE):
            raise ConfigError(
                f"{path}: kernel degree {fields.get('degree')!r} is not {KERNEL_DEGREE}"
            )
        return SvmModel(
            support_vectors=arrays["support_vectors"],
            dual_coef=arrays["dual_coef"].ravel(),
            bias=float(fields["bias"]),
            gamma=float(fields["gamma"]),
            coef0=float(fields["coef0"]),
            C=float(fields["C"]),
            converged=bool(int(fields.get("converged", 1))),
            final_kkt_violation=float(fields.get("final_kkt_violation", 0.0)),
        )
    if kind == "mlp":
        cfg = MlpConfig(
            hidden=int(fields["hidden"]),
            l2=float(fields["l2"]),
            lr=float(fields["lr"]),
            beta1=float(fields["beta1"]),
            beta2=float(fields["beta2"]),
        )
        return MlpModel(
            W1=arrays["W1"],
            b1=arrays["b1"].ravel(),
            W2=arrays["W2"],
            b2=arrays["b2"].ravel(),
            config=cfg,
        )
    raise ConfigError(f"{path}: unknown model kind {kind!r}")
