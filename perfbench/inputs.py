"""Inputs the benchmark generates for flowcoreset, from a seed alone.

Nothing here imports the program: the program receives only the files
written below, and the reference checks read the same arrays back.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

FEATURES = 20
SEPARATION = 4.0


def derive(*parts: object) -> int:
    """A 63-bit seed from a path of labels, stable across processes."""
    key = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big") >> 1


def gaussian_classes(n_pos: int, n_neg: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two unit-covariance Gaussian classes SEPARATION apart, rows shuffled.

    The sim1/sim2 protocol: FEATURES columns, class means at +-SEPARATION/2
    along one random unit direction.
    """
    rng = np.random.default_rng(seed)
    u = rng.normal(size=FEATURES)
    u *= 0.5 * SEPARATION / np.linalg.norm(u)
    x = np.vstack([u + rng.normal(size=(n_pos, FEATURES)),
                   -u + rng.normal(size=(n_neg, FEATURES))])
    y = np.concatenate([np.ones(n_pos), -np.ones(n_neg)])
    order = rng.permutation(x.shape[0])
    return x[order], y[order]


def write_dataset(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    """The program's dataset layout: f0..f{F-1},label with labels 1/-1."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{j}" for j in range(x.shape[1])] + ["label"])
        for row, label in zip(x.tolist(), y.tolist()):
            writer.writerow([repr(v) for v in row] + [int(label)])


def stream_batches(n_batches: int, batch: tuple[int, int], test: tuple[int, int],
                   seed: int) -> tuple[list, list]:
    """Disjoint (x, y) batches and test sets cut from one generated pool."""
    x, y = gaussian_classes(n_batches * (batch[0] + test[0]),
                            n_batches * (batch[1] + test[1]), seed)
    pos, neg = np.flatnonzero(y > 0), np.flatnonzero(y < 0)
    batches, tests = [], []
    for _ in range(n_batches):
        for (n_pos, n_neg), out in ((batch, batches), (test, tests)):
            rows = np.concatenate([pos[:n_pos], neg[:n_neg]])
            pos, neg = pos[n_pos:], neg[n_neg:]
            rows.sort()
            out.append((x[rows], y[rows]))
    return batches, tests


# A CICIDS2017-shaped capture: padded header names, a string label, flow
# rates spanning about 1e0-1e9, a constant flag column, and rows spoiled
# with the NaN/Infinity cells real captures carry.
CAPTURE_COLUMNS = (
    " Destination Port", " Flow Duration", " Total Fwd Packets",
    " Total Backward Packets", "Total Length of Fwd Packets",
    " Total Length of Bwd Packets", " Fwd Packet Length Max",
    " Fwd Packet Length Mean", " Bwd Packet Length Mean", "Flow Bytes/s",
    " Flow Packets/s", " Flow IAT Mean", " Flow IAT Std", "Fwd IAT Total",
    " Bwd PSH Flags", " SYN Flag Count", " ACK Flag Count",
    "Init_Win_bytes_forward", " Average Packet Size", " Label",
)
CAPTURE_LABELS = {"BENIGN": -1, "DDoS": 1}
_SPOIL_COLUMNS = ("Flow Bytes/s", " Flow Packets/s")
_SPOIL_CELLS = ("NaN", "Infinity", "")


def _capture_rows(n: int, attack: bool, rng: np.random.Generator) -> list[list[str]]:
    shift = 1.0 if attack else 0.0
    z = rng.normal(size=(n, 8)) + shift * np.array([-1.2, 1.0, -0.8, 0.9, 1.1, -1.0, 0.7, -0.6])
    duration = np.exp(11.0 + 2.5 * z[:, 0])
    fwd = np.maximum(1, np.round(np.exp(1.5 + 1.0 * z[:, 1])))
    bwd = np.round(np.exp(1.2 + 1.1 * z[:, 2]))
    fwd_len = fwd * np.exp(4.0 + 0.8 * z[:, 3])
    bwd_len = bwd * np.exp(5.0 + 1.0 * z[:, 2])
    seconds = duration / 1e6
    port = np.where(rng.random(n) < (0.8 if attack else 0.3), 80,
                    rng.integers(1, 65535, size=n))
    cols = [
        port, np.round(duration), fwd, bwd, np.round(fwd_len), np.round(bwd_len),
        np.round(fwd_len / fwd * np.exp(0.3 * z[:, 4])), fwd_len / fwd,
        bwd_len / np.maximum(bwd, 1),
        (fwd_len + bwd_len) / seconds, (fwd + bwd) / seconds,
        duration / (fwd + bwd), duration * np.exp(0.5 * z[:, 5]) / (fwd + bwd),
        duration * np.exp(-0.2 * z[:, 6]),
        np.zeros(n),
        (rng.random(n) < (0.6 if attack else 0.2)).astype(float),
        (rng.random(n) < 0.5 + 0.2 * z[:, 7].clip(-1, 1)).astype(float),
        np.round(np.exp(8.0 + 1.5 * z[:, 7])),
        (fwd_len + bwd_len) / (fwd + bwd),
    ]
    label = "DDoS" if attack else "BENIGN"
    table = np.column_stack(cols)
    return [[format(v, ".10g") for v in row] + [label] for row in table.tolist()]


def write_capture(path: Path, n_attack: int, n_benign: int, n_spoiled: int,
                  seed: int) -> dict:
    """Write the capture CSV; returns the counts the checks compare against."""
    rng = np.random.default_rng(seed)
    rows = _capture_rows(n_attack, True, rng) + _capture_rows(n_benign, False, rng)
    spoiled = []
    for i in range(n_spoiled):
        row = list(rows[int(rng.integers(len(rows)))])
        column = CAPTURE_COLUMNS.index(_SPOIL_COLUMNS[i % len(_SPOIL_COLUMNS)])
        row[column] = _SPOIL_CELLS[i % len(_SPOIL_CELLS)]
        spoiled.append(row)
    rows.extend(spoiled)
    order = rng.permutation(len(rows))
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CAPTURE_COLUMNS)
        writer.writerows(rows[i] for i in order)
    return {"written": len(rows), "spoiled": n_spoiled}
