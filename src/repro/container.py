"""The one on-disk container for persisted arrays, and its atomic publish.

Snapshots, graph-store shards and checkpoints are all containers.  A
container file holds, in order:

* an 8-byte magic number, a ``uint32`` layout version, the ``uint32``
  length of the header and the ``uint64`` length of the whole file;
* a JSON header: the string and scalar ``fields``, and for each array its
  dtype, shape and offset, so nothing is ever pickled;
* the raw arrays, each starting at a 64-byte-aligned offset;
* a trailing sha256 of every byte before it.

:func:`read_container` reads the file once and checks the magic number,
the length and the digest before it parses the header, so a flipped or
missing byte anywhere is refused before any of it is trusted.  Every
failure raises :class:`~repro.errors.CodecError` whose ``reason`` callers
count in their rejects counters: ``"digest"`` when a file of the stated
length fails its digest, ``"unreadable"`` for anything else (missing,
torn, foreign or malformed).

:func:`publish` is the one atomic write (tmp + fsync + ``os.replace`` +
directory fsync): a path holds either its old content or its new content,
never a torn file.  All file operations go through this module's ``os``,
which is what lets a test crash a publish at any one of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
import struct
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .errors import CodecError

__all__ = [
    "Container",
    "pack",
    "publish",
    "write_container",
    "read_container",
    "remove",
]

MAGIC = b"\x89REPRO\r\n"
LAYOUT_VERSION = 1
ALIGN = 64
_PREFIX = struct.Struct("<8sIIQ")
_DIGEST_SIZE = hashlib.sha256().digest_size
#: Array dtype kinds a container may hold: bool, signed, unsigned, float.
_KINDS = "biuf"


class Container(NamedTuple):
    """One verified container: its fields, read-only arrays and sha256 hex."""

    fields: dict
    arrays: dict[str, np.ndarray]
    digest: str


def pack(fields: dict, arrays: dict[str, np.ndarray]) -> tuple[list, str]:
    """Lay out one container: its byte chunks and its sha256 hex.

    The chunks end with the digest; arrays are hashed in place, never joined
    into one buffer.
    """
    raws, specs, offset = [], {}, 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        specs[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
        }
        raw = array.reshape(-1).view(np.uint8)
        raws.append(raw)
        offset += raw.size + (-raw.size % ALIGN)
    header = json.dumps({"fields": fields, "arrays": specs}, sort_keys=True).encode()
    start = _PREFIX.size + len(header)
    start += -start % ALIGN
    head = _PREFIX.pack(
        MAGIC, LAYOUT_VERSION, len(header), start + offset + _DIGEST_SIZE
    )
    chunks = [head, header, bytes(start - len(head) - len(header))]
    for raw in raws:
        chunks += [raw, bytes(-raw.size % ALIGN)]
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk)
    chunks.append(sha.digest())
    return chunks, sha.hexdigest()


def publish(path: str | Path, chunks: Iterable) -> None:
    """Write ``chunks`` so that ``path`` holds its old content or all of them.

    The tmp file is fsynced before ``os.replace`` and the directory after
    it, so the same holds across a power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        try:
            for chunk in chunks:
                view = memoryview(chunk).cast("B")
                while view:
                    view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        remove(tmp)
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms that cannot open a directory
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - filesystems without directory fsync
        pass
    finally:
        os.close(dir_fd)


def write_container(
    path: str | Path, fields: dict, arrays: dict[str, np.ndarray]
) -> str:
    """Atomically publish one container at ``path``; return its sha256 hex."""
    chunks, digest = pack(fields, arrays)
    publish(path, chunks)
    return digest


def remove(path: str | Path) -> None:
    """Delete ``path`` if it exists."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


def read_container(path: str | Path) -> Container:
    """Read and verify one container; raise :class:`CodecError` if unusable."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CodecError(f"unreadable container {path}: {exc}") from exc
    if len(blob) < _PREFIX.size + _DIGEST_SIZE:
        raise CodecError(f"unreadable container {path}: {len(blob)} bytes")
    magic, layout, header_size, size = _PREFIX.unpack_from(blob)
    if magic != MAGIC or layout != LAYOUT_VERSION:
        raise CodecError(
            f"unreadable container {path}: not a layout-{LAYOUT_VERSION} container"
        )
    if size != len(blob):
        raise CodecError(
            f"unreadable container {path}: {len(blob)} bytes, expected {size}"
        )
    body = memoryview(blob)[:-_DIGEST_SIZE]
    sha = hashlib.sha256(body)
    if sha.digest() != blob[-_DIGEST_SIZE:]:
        raise CodecError(
            f"container {path} failed digest verification", reason="digest"
        )
    try:
        end = _PREFIX.size + header_size
        if end > len(body):
            raise ValueError("header runs past the end of the file")
        header = json.loads(bytes(body[_PREFIX.size:end]))
        data_start = end + (-end % ALIGN)
        arrays = {
            str(name): _array(blob, data_start, len(body), spec)
            for name, spec in header["arrays"].items()
        }
        fields = dict(header["fields"])
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as exc:
        raise CodecError(f"unreadable container {path}: {exc}") from exc
    return Container(fields, arrays, sha.hexdigest())


def _array(blob: bytes, data_start: int, limit: int, spec: dict) -> np.ndarray:
    """A read-only view of one array, refused unless it lies inside the data."""
    if not isinstance(spec["dtype"], str):
        raise TypeError(f"dtype {spec['dtype']!r} is not a string")
    dtype = np.dtype(spec["dtype"])
    if dtype.kind not in _KINDS:
        raise TypeError(f"refusing dtype {dtype.str!r}")
    shape = tuple(int(dim) for dim in spec["shape"])
    offset = int(spec["offset"])
    count = math.prod(shape)
    start = data_start + offset
    if min(shape, default=0) < 0 or offset < 0 or offset % ALIGN:
        raise ValueError(f"bad shape {shape} or offset {offset}")
    if start + count * dtype.itemsize > limit:
        raise ValueError(f"array at offset {offset} runs past the data")
    return np.frombuffer(blob, dtype=dtype, count=count, offset=start).reshape(shape)
