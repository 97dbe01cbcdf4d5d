import dataclasses
import os

import numpy as np
import pytest

from gazecast import tensor as T


@pytest.fixture(autouse=True)
def clean_tape():
    """Each test starts from an empty tape."""
    T.fresh_tape()
    yield
    T.fresh_tape()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """No test leaves a child process behind, running or exited unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process " +
                ("running" if pid == 0 else f"{pid} exited but unreaped"))


def read_pgm(path) -> np.ndarray:
    """Read back a binary P5 PGM written by ``geometry.write_pgm`` (uint8
    values)."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"P5":
            raise ValueError(f"{path}: not a binary PGM")
        w, h = (int(v) for v in f.readline().split())
        if int(f.readline()) != 255:
            raise ValueError(f"{path}: unsupported maxval")
        return np.frombuffer(f.read(w * h), dtype=np.uint8).reshape(h, w)


def without_raw(samples):
    """Copies of ``samples`` whose images hold only depth and pose, as a
    privacy-sensitive dataset would."""
    return [dataclasses.replace(s, images={m: s.images[m] for m in ("depth", "pose")})
            for s in samples]
