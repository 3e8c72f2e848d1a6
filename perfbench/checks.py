"""Checks on the program's outputs.

Each check raises :class:`CheckFailed` with a message naming what is wrong.
They compare against values computed here, apart from the program, or
against properties the method must have; none compares against a stored
copy of an earlier output.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

TOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _fail(message: str) -> None:
    raise CheckFailed(message)


def fused_image(fused: np.ndarray, shape: tuple[int, ...], where: str) -> None:
    """A fused image is finite, lies in [0, 1] and has the input's shape."""
    fused = np.asarray(fused)
    if fused.shape != tuple(shape):
        _fail(f"{where}: fused shape {fused.shape} != input shape {tuple(shape)}")
    if not np.all(np.isfinite(fused)):
        _fail(f"{where}: fused image has non-finite pixels")
    if fused.min() < 0.0 or fused.max() > 1.0:
        _fail(f"{where}: fused pixels outside [0, 1]: [{fused.min()}, {fused.max()}]")


def _levels(img: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(np.asarray(img, dtype=np.float64) * 255.0 + 0.5), 0, 255).astype(np.int64).ravel()


def _entropy_bits(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def entropy(img: np.ndarray) -> float:
    """Shannon entropy in bits of the 256-level histogram."""
    _, counts = np.unique(_levels(img), return_counts=True)
    return _entropy_bits(counts.astype(np.float64))


def mutual_information(u: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """MI(x;u) + MI(y;u) in bits, as H(a) + H(b) - H(a,b) over 256 levels."""
    total = 0.0
    qu = _levels(u)
    for src in (x, y):
        qs = _levels(src)
        _, joint = np.unique(qs * 256 + qu, return_counts=True)
        total += entropy(src) + entropy(u) - _entropy_bits(joint.astype(np.float64))
    return total


def en_mi(fused: np.ndarray, visible: np.ndarray, infrared: np.ndarray, en: float, mi: float, where: str) -> None:
    """The reported EN and MI match values recomputed here."""
    want_en = entropy(fused)
    want_mi = mutual_information(fused, visible, infrared)
    if not abs(en - want_en) <= TOL:
        _fail(f"{where}: EN {en!r} != recomputed {want_en!r}")
    if not abs(mi - want_mi) <= TOL:
        _fail(f"{where}: MI {mi!r} != recomputed {want_mi!r}")


def vif_identity(value: float, where: str) -> None:
    """VIF of a source against itself is 1."""
    if not abs(value - 1.0) <= TOL:
        _fail(f"{where}: VIF of a source against itself is {value!r}, not 1")


def gmta_records(records: list[dict]) -> None:
    """Every training step was aligned to condition number 1 with equal column norms."""
    if not records:
        _fail("training log is empty")
    for rec in records:
        step = rec["step"]
        if not rec["aligned"]:
            _fail(f"step {step}: shared gradients were not aligned")
        if not abs(rec["kappa_after"] - 1.0) <= TOL:
            _fail(f"step {step}: kappa_after {rec['kappa_after']!r} is not 1")
        norms = np.asarray(rec["column_norms_after"], dtype=np.float64)
        if norms.size < 2 or not np.all(np.isfinite(norms)) or np.ptp(norms) > TOL * max(1.0, norms.max()):
            _fail(f"step {step}: aligned column norms differ: {rec['column_norms_after']}")


def losses_fall(loss_u: list[float], loss_d: list[float], window: int) -> None:
    """Losses are finite, and the mean over the last steps is below that over the first."""
    for name, series in (("loss_u", loss_u), ("loss_d", loss_d)):
        arr = np.asarray(series, dtype=np.float64)
        if arr.size < 2 * window:
            _fail(f"{name}: {arr.size} steps, need {2 * window} to compare first and last {window}")
        if not np.all(np.isfinite(arr)):
            _fail(f"{name}: non-finite loss at step {int(np.argmin(np.isfinite(arr)))}")
        first, last = float(arr[:window].mean()), float(arr[-window:].mean())
        if not last < first:
            _fail(f"{name}: mean over the last {window} steps {last:.6g} is not below the first {first:.6g}")


def boxes(pred: np.ndarray, scores: np.ndarray | None, count: int, where: str) -> None:
    """`count` boxes with centres in [0,1], sides > 0 and scores in [0,1]."""
    pred = np.asarray(pred, dtype=np.float64)
    if pred.shape != (count, 4):
        _fail(f"{where}: {pred.shape[0] if pred.ndim == 2 else pred.shape} boxes, expected {count}")
    if not np.all(np.isfinite(pred)):
        _fail(f"{where}: non-finite box coordinates")
    if pred[:, :2].min() < 0.0 or pred[:, :2].max() > 1.0:
        _fail(f"{where}: box centre outside [0, 1]")
    if pred[:, 2:].min() <= 0.0:
        _fail(f"{where}: box with a side <= 0")
    if scores is None:
        _fail(f"{where}: boxes have no scores")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (count,) or not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
        _fail(f"{where}: scores missing or outside [0, 1]")


def identical(first: bytes, again: bytes, where: str) -> None:
    """Two runs with the same seed gave byte-identical output."""
    if first != again:
        _fail(f"{where}: output differs between runs with the same seed")


def map_identity(value: float, where: str) -> None:
    """mAP of the ground truth scored as predictions is 1."""
    if not abs(value - 1.0) <= TOL:
        _fail(f"{where}: mAP of ground truth against itself is {value!r}, not 1")


def cli_outputs(out_dir: Path, scene_ids: list[str], suffix: str, command: str) -> None:
    """A command that exited 0 wrote exactly one output file per scene."""
    found = sorted(p.name for p in Path(out_dir).glob(f"*{suffix}"))
    want = sorted(f"{sid}{suffix}" for sid in scene_ids)
    if found != want:
        _fail(f"{command}: wrote {len(found)} {suffix} files for {len(want)} scenes")
