"""Model file format v2: a content digest, a text header and a flat float64 payload.

Layout::

    ZICAE-MODEL v2\n
    sha256=<hex digest of every byte after this line>\n
    key=value lines (training-config digest, architecture fields)\n
    array=<name>:<d0>x<d1> lines, one per parameter/state array\n
    DATA\n
    <row-major little-endian float64 values, concatenated in array order>

The digest covers the whole header and payload, so no edited value or
flipped byte loads.  Writing the same trained model twice produces
byte-identical files.
"""

from __future__ import annotations

import hashlib
from itertools import zip_longest

import numpy as np

from .autoencoder import ARCH_FIELDS, TrainConfig, ZicAutoencoder

MAGIC = "ZICAE-MODEL v2"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def save_model(path, model: ZicAutoencoder, cfg: TrainConfig) -> None:
    arrays = model.arrays()
    header = [f"config_sha256={_sha256(cfg.config_text().encode())}"]
    header += [f"{key}={text}" for key, text in model.arch.config_items(ARCH_FIELDS)]
    header += [f"array={name}:" + "x".join(map(str, np.atleast_1d(arr).shape))
               for name, arr in arrays]
    header.append("DATA")
    body = "\n".join(header).encode() + b"\n" + b"".join(
        np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays)
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC}\nsha256={_sha256(body)}\n".encode())
        fh.write(body)


def load_model(path) -> ZicAutoencoder:
    """Rebuild a saved model; any deviation from the saved layout raises ValueError.

    The digest must match before anything is parsed.  Since a file with a valid
    digest may still come from another writer, the header must then hold each
    expected key once and exactly the rebuilt model's arrays, in order and with
    their shapes, followed by a payload of exactly their size.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _read_model(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_model(raw: bytes) -> ZicAutoencoder:
    magic, _, rest = raw.partition(b"\n")
    if magic != MAGIC.encode():
        raise ValueError("not a model file")
    digest, _, body = rest.partition(b"\n")
    if digest != f"sha256={_sha256(body)}".encode():
        raise ValueError("sha256 does not match the file's content")
    head, _, blob = body.partition(b"\nDATA\n")
    meta: dict[str, str] = {}
    shapes: list[tuple[str, tuple[int, ...]]] = []
    for line in head.decode().split("\n"):
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"bad header line {line!r}")
        if key == "array":
            name, _, dims = value.partition(":")
            shapes.append((name, tuple(int(d) for d in dims.split("x"))))
        elif key in meta:
            raise ValueError(f"header key {key!r} repeated")
        else:
            meta[key] = value
    expected = {"config_sha256", *(key for key, _ in TrainConfig().config_items(ARCH_FIELDS))}
    if set(meta) != expected:
        raise ValueError(f"missing header keys {sorted(expected - set(meta))}, "
                         f"unknown header keys {sorted(set(meta) - expected)}")

    model = ZicAutoencoder(TrainConfig.from_config(meta), np.random.default_rng(0))
    arrays = model.arrays()
    layout = [(name, np.atleast_1d(arr).shape) for name, arr in arrays]
    for i, (got, want) in enumerate(zip_longest(shapes, layout)):
        if got != want:
            raise ValueError(f"array entry {i} is {got}, the architecture needs {want}")
    size = 8 * sum(arr.size for _, arr in arrays)
    if len(blob) != size:
        raise ValueError(f"payload has {len(blob)} bytes, the arrays need {size}")
    offset = 0
    for _, arr in arrays:
        arr[...] = np.frombuffer(blob, dtype="<f8", count=arr.size,
                                 offset=offset).reshape(arr.shape)
        offset += 8 * arr.size
    return model


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())
