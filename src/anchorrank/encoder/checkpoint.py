"""Binary checkpoint files.

Layout: 8-byte magic, u32 header length, JSON header (version, encoder
config, dtype, free-form extra such as the vocabulary and provenance),
u32 tensor count, then named tensors as (u16 name length, name, u8 ndim,
u64 dims, raw little-endian float64 row-major payload).  Optimizer moments ride
along under an "adam." name prefix so training can resume exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from anchorrank.encoder.adam import AdamState
from anchorrank.encoder.config import EncoderConfig
from anchorrank.encoder.params import param_shapes

MAGIC = b"ANCRCKPT"
VERSION = 1
DTYPE = "<f8"


class CheckpointError(ValueError):
    """Unreadable or incompatible checkpoint file."""


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    config: EncoderConfig
    extra: dict
    adam: AdamState | None


def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    payload = np.ascontiguousarray(arr, dtype=DTYPE).tobytes()
    encoded = name.encode("utf-8")
    f.write(struct.pack("<H", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        f.write(struct.pack("<Q", dim))
    f.write(payload)


def _read_exact(f, count: int) -> bytes:
    """The next count bytes.  A count beyond the end of the file is checked
    before the read, so a corrupted length never asks for a huge buffer."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise CheckpointError(f"truncated checkpoint file: {count} bytes wanted, {left} left")
    return f.read(count)


def _read_tensor(f) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(f, 2))
    try:
        name = _read_exact(f, name_len).decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError("tensor name is not UTF-8") from None
    (ndim,) = struct.unpack("<B", _read_exact(f, 1))
    shape = tuple(struct.unpack("<Q", _read_exact(f, 8))[0] for _ in range(ndim))
    raw = _read_exact(f, math.prod(shape) * np.dtype(DTYPE).itemsize)
    try:
        arr = np.frombuffer(raw, dtype=DTYPE).reshape(shape).astype(np.float64)
    except ValueError:  # an empty payload under a dim numpy cannot hold
        raise CheckpointError(f"tensor {name!r} has unusable shape {shape}") from None
    return name, arr


def save_checkpoint(
    path: str | Path,
    params: dict[str, np.ndarray],
    config: EncoderConfig,
    extra: dict | None = None,
    adam: AdamState | None = None,
) -> None:
    header = {
        "version": VERSION,
        "config": config.to_dict(),
        "dtype": DTYPE,
        "extra": extra or {},
        "adam_step": adam.step if adam is not None else None,
    }
    header_bytes = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")

    names = sorted(params)
    tensors: list[tuple[str, np.ndarray]] = [(n, params[n]) for n in names]
    if adam is not None:
        tensors += [(f"adam.m.{n}", adam.m[n]) for n in names]
        tensors += [(f"adam.v.{n}", adam.v[n]) for n in names]

    with Path(path).open("wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            _write_tensor(f, name, arr)


def _read_header(f) -> tuple[dict, EncoderConfig]:
    """The JSON header after the magic, with its encoder config.  Every
    malformed header is a CheckpointError."""
    (header_len,) = struct.unpack("<I", _read_exact(f, 4))
    try:
        header = json.loads(_read_exact(f, header_len).decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"unreadable header ({exc})") from None
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    if header.get("version") != VERSION:
        raise CheckpointError(f"unsupported version {header.get('version')}")
    dtype = header.get("dtype", DTYPE)
    if dtype != DTYPE:
        raise CheckpointError(f"unsupported payload dtype {dtype!r}")
    if "config" not in header:
        raise CheckpointError("header carries no encoder config")
    try:
        config = EncoderConfig.from_dict(header["config"])
    except ValueError as exc:
        raise CheckpointError(f"bad encoder config: {exc}") from None
    if not isinstance(header.get("extra", {}), dict):
        raise CheckpointError("header extra is not a JSON object")
    adam_step = header.get("adam_step")
    if adam_step is not None and (isinstance(adam_step, bool) or not isinstance(adam_step, int) or adam_step < 0):
        raise CheckpointError(f"bad optimizer step {adam_step!r}")
    return header, config


def load_checkpoint(path: str | Path, expected_config: EncoderConfig | None = None) -> Checkpoint:
    """Read a checkpoint; validates magic, header, version, and parameter
    shapes.  Every unreadable or malformed file is a CheckpointError that
    names it.

    If expected_config is given, every differing field is an error (this is
    how a reranker refuses a checkpoint with, say, the wrong vocab_size).
    """
    with Path(path).open("rb") as f:
        try:
            if _read_exact(f, len(MAGIC)) != MAGIC:
                raise CheckpointError("not a checkpoint file")
            header, config = _read_header(f)
            (n_tensors,) = struct.unpack("<I", _read_exact(f, 4))
            tensors = dict(_read_tensor(f) for _ in range(n_tensors))
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from None

    if expected_config is not None and expected_config != config:
        diff = [
            f"{k}: checkpoint={getattr(config, k)} expected={getattr(expected_config, k)}"
            for k in config.to_dict()
            if getattr(config, k) != getattr(expected_config, k)
        ]
        raise CheckpointError(f"{path}: config mismatch ({'; '.join(diff)})")

    shapes = param_shapes(config)
    params = {}
    for name, shape in shapes.items():
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, expected {shape}"
            )
        params[name] = tensors[name]

    adam = None
    if header.get("adam_step") is not None:
        try:
            m = {n: tensors[f"adam.m.{n}"] for n in shapes}
            v = {n: tensors[f"adam.v.{n}"] for n in shapes}
        except KeyError as exc:
            raise CheckpointError(f"{path}: incomplete optimizer state ({exc})") from None
        adam = AdamState(step=header["adam_step"], m=m, v=v)

    return Checkpoint(params=params, config=config, extra=header.get("extra", {}), adam=adam)
