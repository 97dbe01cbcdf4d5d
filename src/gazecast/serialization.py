"""Checkpoint files: named parameter records in the GZT1 tensor encoding.

Layout (all integers little-endian):

    magic  b"GZCK"
    u32    record count
    u32    config-hash length, then that many utf-8 bytes
    u32    config-text length, then that many utf-8 bytes
    count * [u32 name length, utf-8 name, GZT1 tensor record]

The embedded config text lets evaluation rebuild the exact model without a
separate config file; the hash ties every derived number back to a run.

Checkpoints, reports and loss curves are written through ``atomic_write``,
so a reader sees either the previous file or the complete new one.
"""

from __future__ import annotations

import os
import secrets
import struct
from contextlib import contextmanager

import numpy as np

from .errors import CheckpointError
from .tensor import tensor_from_bytes, tensor_to_bytes

_MAGIC = b"GZCK"


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file open for writing in ``mode``. It is a temporary file in
    the directory of ``path`` that replaces ``path`` when the block ends
    normally; if the block raises, it is removed and ``path`` is untouched.

    This guards against a failed or interrupted process, not a power loss:
    the data is not fsync'ed. An error in creating or renaming the temporary
    file is raised as the same OSError on ``path``, the name the caller gave.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(6)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:   # os.replace failed
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def save_checkpoint(path, named_arrays: dict[str, np.ndarray], config_hash: str,
                    config_text: str) -> None:
    chunks = [_MAGIC, struct.pack("<I", len(named_arrays))]
    h = config_hash.encode()
    c = config_text.encode()
    chunks.append(struct.pack("<I", len(h)))
    chunks.append(h)
    chunks.append(struct.pack("<I", len(c)))
    chunks.append(c)
    for name, arr in named_arrays.items():
        nb = name.encode()
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(tensor_to_bytes(arr))
    with atomic_write(path, "wb") as f:
        f.write(b"".join(chunks))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], str, str]:
    """Returns (name -> array, config_hash, config_text)."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 8 or buf[:4] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (count,) = struct.unpack_from("<I", buf, 4)
    pos = 8

    def read_str():
        nonlocal pos
        if len(buf) < pos + 4:
            raise CheckpointError(f"{path}: truncated header")
        (n,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        if len(buf) < pos + n:
            raise CheckpointError(f"{path}: truncated string field")
        try:
            s = buf[pos : pos + n].decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: string field is not valid UTF-8 ({exc})") from exc
        pos += n
        return s

    config_hash = read_str()
    config_text = read_str()
    out: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            name = read_str()
            arr, pos = tensor_from_bytes(buf, pos)
            out[name] = arr
    except Exception as exc:  # tensor decoding raises DatasetError
        raise CheckpointError(f"{path}: corrupt parameter record ({exc})") from exc
    if len(out) != count:
        raise CheckpointError(f"{path}: expected {count} records, decoded {len(out)}")
    if pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - pos} trailing bytes")
    return out, config_hash, config_text
