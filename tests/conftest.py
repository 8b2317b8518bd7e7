"""Shared builders for the test suite plus the acceptance summary hook."""

import struct
import sys
import threading

import numpy as np
import pytest

from slabnn.checkpoint import FORMAT_VERSION, MAGIC, _encode_tensor
from slabnn.elbo import Batch
from slabnn.model import Family, NetworkSpec, PriorConfig, init_state
from slabnn.numkernel import RngStream

ALL_FAMILIES = [(Family.MF, 0), (Family.MVN_FULL, 0),
                (Family.MVN_LOWRANK, 2), (Family.MVN_LOWRANK, 0)]


def make_state(family=Family.MF, rank=0, seed=3, widths=(4, 3, 2),
               prior=None, init_tau=0.05, activations=None):
    spec = NetworkSpec(widths, activations)
    prior = prior if prior is not None else PriorConfig()
    return init_state(spec, prior, family, RngStream(seed, 0),
                      rank=rank, init_tau=init_tau)


def make_batch(n=8, p=4, classes=2, seed=9, n_total=None):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, p))
    y = gen.integers(0, classes, size=n)
    return Batch(x, y, n_total=n_total if n_total is not None else n)


def write_tensors(path, tensors: dict):
    """Write {name: array} as a checkpoint file, valid or not."""
    blob = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(tensors))]
    blob += [_encode_tensor(n, a) for n, a in tensors.items()]
    path.write_bytes(b"".join(blob))


def pin_cores(monkeypatch, cores, openblas=None, omp=None):
    """Fake ``cores`` CPUs and set the BLAS thread variables."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp),
                       ("MKL_NUM_THREADS", None)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)


@pytest.fixture
def started(monkeypatch):
    """Every thread started during the test, in order."""
    threads = []
    start = threading.Thread.start

    def counting(self):
        threads.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return threads


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion, in order."""
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    lines = getattr(mod, "RESULTS", None) if mod is not None else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
