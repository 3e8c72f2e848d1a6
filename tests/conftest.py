"""Shared fixtures: tiny on-disk datasets reused across harness/CLI tests."""

import os

# One BLAS thread, set before numpy is first imported (fusedet imports it
# below).  OpenBLAS worker threads busy-wait between calls, so on a 2-core
# host a single busy neighbour process more than doubles the time of a
# training step with two threads (226 vs 98 ms), and two concurrent runs
# quadruple it; idle, two threads gain only about 10%.  Results are the
# same bytes with either count.  An explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from fusedet import synthdata as sd  # noqa: E402
from fusedet.harness import SceneBatch  # noqa: E402


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """8 train + 4 val scenes at 64x64; session-scoped, read-only."""
    root = tmp_path_factory.mktemp("data")
    sd.generate_dataset(root, "train", 8, 7)
    sd.generate_dataset(root, "val", 4, 900)
    return root


@pytest.fixture(scope="session")
def train_batch(tiny_dataset):
    return SceneBatch.from_dir(tiny_dataset, "train")


@pytest.fixture(scope="session")
def val_batch(tiny_dataset):
    return SceneBatch.from_dir(tiny_dataset, "val")
