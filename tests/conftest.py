import contextlib
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fairdep import Column, Dataset, Schema, data
from fairdep.data import dataset_from_arrays
from fairdep.workers import FORKS

needs_fork = pytest.mark.skipif(not FORKS, reason="the package forks workers only on Linux")


@contextlib.contextmanager
def recording_forks():
    """Yields the pids of the processes forked in the block, each of
    which must have been reaped when the block ends."""
    forked = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    with mock.patch.object(os, "fork", recording_fork):
        yield forked
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@contextlib.contextmanager
def split_loads(cpus=4):
    """Read every CSV path with a newline and no quote in byte ranges, on `cpus` CPUs.

    Yields the pids of the processes forked, as `recording_forks` does.
    """
    with mock.patch.object(data, "SPLIT_BYTES", 1), mock.patch.object(
        os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True
    ), recording_forks() as forked:
        yield forked


@pytest.fixture
def forced_split():
    """`split_loads` on four CPUs around the whole test."""
    if not FORKS:
        pytest.skip("the package forks workers only on Linux")
    with split_loads() as forked:
        yield forked


@pytest.fixture
def toy_schema():
    """Three features: a two-category split, a count, a three-way age band."""
    return Schema(
        columns=(
            Column("gender", "categorical", categories=("male", "female")),
            Column("ncrimes", "numeric"),
            Column("age", "categorical", categories=("<30", "30-60", ">60")),
        ),
        label="recid",
        positive="yes",
    )


@pytest.fixture
def toy_dataset(toy_schema) -> Dataset:
    return dataset_from_arrays(
        toy_schema,
        features=[
            np.array(["male", "female", "female"], dtype=object),
            np.array([2.0, 0.0, 1.0]),
            np.array(["30-60", "<30", ">60"], dtype=object),
        ],
        y=np.array([1, -1, -1]),
    )


TOY_EXTENDED = np.array(
    [
        [1, 0, 2, 0, 1, 0],
        [0, 1, 0, 1, 0, 0],
        [0, 1, 1, 0, 0, 1],
    ],
    dtype=float,
)


@pytest.fixture
def toy_csv(tmp_path, toy_schema):
    path = tmp_path / "toy.csv"
    path.write_text(
        "gender,ncrimes,age,recid\n"
        "male,2,30-60,yes\n"
        "female,0,<30,no\n"
        "female,1,>60,no\n",
        encoding="utf-8",
    )
    return path
