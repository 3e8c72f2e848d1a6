"""Timed training run, shared by the `train` workload and the model set-up of the others.

Run as a script it trains the fixed recipe on a dataset written by the
benchmark, saves the model, and writes ``training.json`` with the step
times, the per-step log and, when traced, the per-layer table of the run.
The `infer` and `large` workloads make their model this way, in a child
process, so that the training tapes do not count towards the peak memory
of the process that serves their commands.

    python3 perfbench/training.py --data DIR --steps N --out DIR --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# The training recipe of acceptance criterion 5: joint training with GMTA
# at task weights 0.3/0.7.  Its scenes and its seed are fixed, so that the
# trained model, and with it every quality metric, does not depend on the
# luck of one initialisation; the benchmark seed draws only the scenes
# that are timed.
TRAIN_SCENES = 16
TRAIN_DATA_SEED = 3000
TRAIN_SEED = 0
LEARNING_RATE = 0.05
TASK_WEIGHTS = (0.3, 0.7)

M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4  # mallopt parameters, from glibc's malloc.h
CALIBRATE_EVERY = 5  # training steps between two calibrations


def calibration_s() -> float:
    """Seconds taken by a fixed piece of numpy work shaped like the program's.

    A 3x3 convolution of 16 channels at 64x64 by im2col and GEMM, then a
    loop of small elementwise ops: the mix of GEMM, memory traffic and
    per-op dispatch that a training step or a command spends its time on.
    Timings are scaled by how long this takes in the same run, so that the
    speed of a shared host at the time of the run cancels out.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 16 * 66 * 66).reshape(16, 66, 66)
    w = np.linspace(-1.0, 1.0, 16 * 144).reshape(16, 144)
    small = np.linspace(0.0, 1.0, 256)
    t0 = time.perf_counter()
    for _ in range(8):
        win = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(1, 2))
        cols = np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(144, 64 * 64)
        y = w @ cols
        y.sum()
        for _ in range(300):
            small = np.maximum(small * 0.999 + 0.001, 0.0)
    return time.perf_counter() - t0


def steady_allocator() -> None:
    """Keep freed memory in the process instead of returning it to the kernel.

    The tapes allocate and free hundreds of MB per step or command.  By
    default glibc maps large buffers afresh and returns freed ones, so every
    round faults its pages in again, and what those faults cost depends on
    the state of the host: fuse per scene then differs by up to 60% between
    processes running the same work.  With no mmap'd chunks and no trimming
    it differs by about 5%.  Without glibc this does nothing.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(M_MMAP_MAX, 0)
        libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)
    except (OSError, AttributeError):
        pass


def import_program():
    """Import fusedet from the checkout's `src/`, and from nowhere else."""
    if not (SRC / "fusedet" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {SRC / 'fusedet'}")
    sys.path.insert(0, str(SRC))
    import fusedet

    if Path(fusedet.__file__).resolve().parent != (SRC / "fusedet").resolve():
        sys.exit(f"perfbench: imported fusedet from {fusedet.__file__}, not from {SRC}")
    return fusedet


def write_training_split(sd, root: Path) -> None:
    sd.generate_dataset(root, "train", TRAIN_SCENES, TRAIN_DATA_SEED, min_objects=1, max_objects=1)


@contextlib.contextmanager
def step_clock(harness, calibrations: list[float] | None):
    """Time each training step, from one update's return to the next.

    With a `calibrations` list, every CALIBRATE_EVERY steps a calibration
    runs between two steps, outside both, and its time is appended.
    """
    times: list[float] = []
    inner = harness.gmta_step
    start = [time.perf_counter()]

    def timed(*args, **kwargs):
        out = inner(*args, **kwargs)
        times.append(time.perf_counter() - start[0])
        if calibrations is not None and len(times) % CALIBRATE_EVERY == 0:
            calibrations.append(calibration_s())
        start[0] = time.perf_counter()
        return out

    harness.gmta_step = timed
    try:
        yield times
    finally:
        harness.gmta_step = inner


def timed_train(harness, batch, steps: int, calibrations: list[float] | None = None):
    """Train the recipe for `steps` steps; returns (model, log, step times in s)."""
    cfg = harness.RunConfig(
        seed=TRAIN_SEED, iterations=steps, learning_rate=LEARNING_RATE, task_weights=TASK_WEIGHTS
    )
    with step_clock(harness, calibrations) as times:
        model, log = harness.train(cfg, batch)
    return model, log, times


def record_json(rec) -> dict:
    return {k: v for k, v in asdict(rec).items() if k in ("step", "loss_u", "loss_d", "aligned", "kappa_after", "column_norms_after")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--data", required=True, help="dataset root holding the training split")
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    steady_allocator()
    import_program()
    from fusedet import harness

    out = Path(args.out)
    batch = harness.SceneBatch.from_dir(args.data, "train")
    calibrations: list[float] = []
    model, log, times = timed_train(harness, batch, args.steps, calibrations)
    model.save(out / "model.json")
    result = {"step_s": times, "calibration_s": calibrations, "records": [record_json(r) for r in log.records]}
    if args.trace:
        # an identical second run, traced, gives the per-layer table and,
        # against the first, the tracing overhead
        from spans import Tracer

        tracer = Tracer(step_span="gmta.gmta_step")
        with tracer.tracing("train"):
            _, _, traced = timed_train(harness, batch, args.steps)
        result["trace"] = {
            "tables": tracer.tables,
            "ops": tracer.op_calls,
            "retained": tracer.retained,
            "peaks": tracer.peaks,
            "traced_step_s": traced,
        }
    (out / "training.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
