"""Checkpoint bundle IO: format tag "jtckpt-v1".

A bundle is a directory holding:
  meta.json       format tag + iteration counter
  config.json     model and train configs as key-value documents
  vocab.txt       one token per line, order preserved
  params.json     manifest: [{name, shape, offset}], float32 little-endian,
                  plus the byte length and sha256 of params.bin
  params.bin      concatenated parameter blobs
  optim.json      optimizer scalars + manifest for optim.bin (length, sha256)
  optim.bin       first/second-moment blobs
  rng.json        bit-generator state

Everything round-trips bit-exactly so a resumed run reproduces an
unbroken one. Loading checks each blob file against its manifest's length
and sha256 and raises ``ValueError`` on a mismatch; a manifest written
without them (older bundles) loads unchecked. A save writes a sibling
``<name>.tmp`` directory and swaps it into place, so a process killed
mid-save leaves the previous bundle whole; the next save clears what it
left.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

FORMAT_TAG = "jtckpt-v1"
_BLOB_DTYPE = "<f4"  # little-endian float32


def _write_blobs(dirpath: Path, stem: str, arrays: dict[str, np.ndarray], extra: dict | None = None):
    manifest = []
    offset = 0
    chunks = []
    for name, arr in arrays.items():
        raw = np.ascontiguousarray(arr, dtype=_BLOB_DTYPE).tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += len(raw)
        chunks.append(raw)
    blob = b"".join(chunks)
    doc = {"dtype": _BLOB_DTYPE, "entries": manifest, "bytes": len(blob),
           "sha256": hashlib.sha256(blob).hexdigest()}
    if extra:
        doc.update(extra)
    (dirpath / f"{stem}.json").write_text(json.dumps(doc, indent=1))
    (dirpath / f"{stem}.bin").write_bytes(blob)


def _read_blobs(dirpath: Path, stem: str) -> tuple[dict[str, np.ndarray], dict]:
    doc = json.loads((dirpath / f"{stem}.json").read_text())
    raw = (dirpath / f"{stem}.bin").read_bytes()
    if "bytes" in doc and len(raw) != doc["bytes"]:
        raise ValueError(f"{stem}.bin holds {len(raw)} bytes, its manifest says {doc['bytes']}")
    if "sha256" in doc and hashlib.sha256(raw).hexdigest() != doc["sha256"]:
        raise ValueError(f"{stem}.bin does not match the sha256 in {stem}.json")
    arrays = {}
    for entry in doc["entries"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        arrays[entry["name"]] = np.frombuffer(
            raw, dtype=doc["dtype"], count=n, offset=start
        ).reshape(shape).copy()
    extra = {k: v for k, v in doc.items() if k not in ("dtype", "entries", "bytes", "sha256")}
    return arrays, extra


def save_bundle(
    path,
    *,
    iteration: int,
    config: dict,
    vocab_lines: list[str],
    params: dict[str, np.ndarray],
    optim_arrays: dict[str, np.ndarray],
    optim_extra: dict,
    rng_state: dict,
) -> None:
    final = Path(path)
    tmp, old = final.with_name(final.name + ".tmp"), final.with_name(final.name + ".old")
    if old.exists() and not final.exists():  # killed between the two renames below
        os.replace(old, final)
    for leftover in (tmp, old):
        shutil.rmtree(leftover, ignore_errors=True)
    tmp.mkdir(parents=True)
    (tmp / "meta.json").write_text(json.dumps({"format": FORMAT_TAG, "iteration": iteration}))
    (tmp / "config.json").write_text(json.dumps(config, indent=1))
    (tmp / "vocab.txt").write_text("\n".join(vocab_lines) + "\n")
    _write_blobs(tmp, "params", params)
    _write_blobs(tmp, "optim", optim_arrays, extra=optim_extra)
    (tmp / "rng.json").write_text(json.dumps(rng_state))
    # a directory cannot be renamed over a non-empty one: move the old bundle aside first
    if final.exists():
        os.replace(final, old)
    os.replace(tmp, final)
    shutil.rmtree(old, ignore_errors=True)


def load_bundle(path) -> dict:
    dirpath = Path(path)
    meta = json.loads((dirpath / "meta.json").read_text())
    if meta.get("format") != FORMAT_TAG:
        raise ValueError(f"unsupported checkpoint format {meta.get('format')!r} (want {FORMAT_TAG})")
    params, _ = _read_blobs(dirpath, "params")
    optim_arrays, optim_extra = _read_blobs(dirpath, "optim")
    return {
        "iteration": meta["iteration"],
        "config": json.loads((dirpath / "config.json").read_text()),
        "vocab_lines": (dirpath / "vocab.txt").read_text().splitlines(),
        "params": params,
        "optim_arrays": optim_arrays,
        "optim_extra": optim_extra,
        "rng_state": json.loads((dirpath / "rng.json").read_text()),
    }
