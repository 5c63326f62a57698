"""Named-tensor checkpoint archive.

Layout: a text manifest followed by raw little-endian float32 arrays.

    CFKP1
    <entry count>
    <name>\t<comma-joined shape>\t<byte offset into blob>
    ...
    (blank line)
    <raw f32 data>

Internal math is float64; serialization narrows to float32 for compact
artifacts, so save/load round-trips are exact only at float32 precision.
"""

from __future__ import annotations

import math
import os

import numpy as np

MAGIC = "CFKP1"


class CheckpointError(ValueError):
    """Malformed or version-incompatible checkpoint file."""


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write the manifest (its offsets follow from the shapes), then one array at a time."""
    manifest = [MAGIC, str(len(tensors))]
    offset = 0
    for name in sorted(tensors):
        shape = np.shape(tensors[name])
        manifest.append(f"{name}\t{','.join(str(d) for d in shape)}\t{offset}")
        offset += 4 * math.prod(shape)
    with open(path, "wb") as fh:
        fh.write(("\n".join(manifest) + "\n\n").encode("utf-8"))
        for name in sorted(tensors):
            fh.write(np.ascontiguousarray(tensors[name], dtype="<f4"))


def _manifest_int(text: str, what: str) -> int:
    # digits only: int() would also take signs, spaces, underscores and non-ASCII digits
    if not (text.isascii() and text.isdigit()):
        raise CheckpointError(f"bad {what}: {text!r}")
    return int(text)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint written by ``save_checkpoint``, one tensor's bytes at a time.

    Any malformed file raises ``CheckpointError``: a bad manifest, entries
    that do not tile the payload back to back in manifest order (gaps,
    overlaps, out-of-range offsets, trailing bytes), or a NaN or Inf value.
    """
    with open(path, "rb") as fh:
        # the manifest ends at the first blank line after its first line
        header = [fh.readline()]
        while (line := fh.readline()) != b"\n":
            if not line:
                raise CheckpointError("missing manifest terminator")
            header.append(line)
        try:
            lines = b"".join(header)[:-1].decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"manifest is not UTF-8: {exc}") from exc
        if not lines or lines[0] != MAGIC:
            raise CheckpointError(f"bad magic header: expected {MAGIC!r}")
        if len(lines) < 2:
            raise CheckpointError("bad entry count")
        count = _manifest_int(lines[1], "entry count")
        if len(lines) != 2 + count:
            raise CheckpointError(f"manifest declares {count} entries, found {len(lines) - 2}")
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        out: dict[str, np.ndarray] = {}
        end = 0
        for line in lines[2:]:
            try:
                name, shape_s, offset_s = line.split("\t")
            except ValueError as exc:
                raise CheckpointError(f"bad manifest line: {line!r}") from exc
            if not name or name in out:
                raise CheckpointError(f"empty or duplicate tensor name {name!r}")
            shape = tuple(_manifest_int(d, f"dimension of {name!r}")
                          for d in shape_s.split(",")) if shape_s else ()
            offset = _manifest_int(offset_s, f"offset of {name!r}")
            if offset != end:
                raise CheckpointError(
                    f"payload of {name!r} starts at byte {offset}, expected {end}"
                )
            end = offset + 4 * math.prod(shape)
            if end > payload:
                raise CheckpointError(
                    f"truncated payload for {name!r}: needs bytes up to {end}, have {payload}"
                )
            # the entries tile the payload in order: the file is at this offset
            arr = np.frombuffer(fh.read(end - offset), dtype="<f4")
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"non-finite value in {name!r}")
            out[name] = arr.reshape(shape).astype(np.float64)
    if end != payload:
        raise CheckpointError(f"{payload - end} trailing payload bytes")
    return out
