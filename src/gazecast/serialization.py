"""Checkpoint files: named parameter records in the GZT1 tensor encoding.

Layout (all integers little-endian):

    magic  b"GZCK"
    u32    record count
    u32    config-hash length, then that many utf-8 bytes
    u32    config-text length, then that many utf-8 bytes
    count * [u32 name length, utf-8 name, GZT1 tensor record]

The embedded config text lets evaluation rebuild the exact model without a
separate config file; the hash ties every derived number back to a run.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CheckpointError
from .tensor import tensor_from_bytes, tensor_to_bytes

_MAGIC = b"GZCK"


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
    with open(path, "wb") as f:
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
