import dataclasses

import pytest

from gazecast import tensor as T
from gazecast.checks import autodiff_grads, finite_diff_grads, max_rel_err  # noqa: F401


@pytest.fixture(autouse=True)
def clean_tape():
    """Each test starts from an empty tape."""
    T.fresh_tape()
    yield
    T.fresh_tape()


def without_raw(samples):
    """Copies of ``samples`` whose images hold only depth and pose, as a
    privacy-sensitive dataset would."""
    return [dataclasses.replace(s, images={m: s.images[m] for m in ("depth", "pose")})
            for s in samples]
