"""Versioned binary model files.

Layout: 8-byte magic "SWANMDL5", a big-endian uint64 header length, a
UTF-8 JSON header (kind, config, schema, scene ids, graph, parameter
manifest), then the raw little-endian float64 parameter buffers in
manifest order. Serialization is byte-deterministic for identical
parameters.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .features import FeatureSchema
from .model import (ModelConfig, ModelParams, check_graph_scenes, init_params,
                    param_shapes)
from .srg import SceneRelationGraph, graph_from_json, graph_to_json

MAGIC = b"SWANMDL5"


def save_model(params: ModelParams, path: str,
               graph: SceneRelationGraph | None = None) -> None:
    """Write params (and, for the full model, its graph) to one file."""
    named = params.named_parameters()
    header = {
        "kind": params.kind,
        "seed": params.seed,
        "config": params.config.to_json(),
        "schema": params.schema.to_json(),
        "scene_ids": sorted(params.embeddings.scene_vocab),
        "graph": graph_to_json(graph) if graph is not None else None,
        "params": [{"name": name, "shape": list(t.shape)} for name, t in named],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">Q", len(blob)))
        fh.write(blob)
        for _, t in named:
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


# Header fields and their JSON types; "graph" may also be null.
_HEADER_FIELDS = {"kind": str, "seed": int, "config": dict, "schema": list,
                  "scene_ids": list, "graph": dict, "params": list}


def _check_header(path: str, header) -> None:
    """ValueError naming the file unless the header has every field, well typed."""
    if not isinstance(header, dict):
        raise ValueError(f"{path}: model header is not a JSON object")
    missing = sorted(set(_HEADER_FIELDS) - set(header))
    if missing:
        raise ValueError(f"{path}: model header lacks {missing}")
    for key, kind in _HEADER_FIELDS.items():
        value = header[key]
        if not isinstance(value, kind) and not (key == "graph" and value is None):
            raise ValueError(f"{path}: model header field {key!r} is not a JSON "
                             f"{'integer' if kind is int else kind.__name__}")
    if not all(isinstance(s, str) for s in header["scene_ids"]):
        raise ValueError(f"{path}: model header has a scene id that is not a string")
    for meta in header["params"]:
        if not (isinstance(meta, dict) and isinstance(meta.get("name"), str)
                and isinstance(meta.get("shape"), list)
                and all(type(s) is int and s >= 0 for s in meta["shape"])):
            raise ValueError(f"{path}: malformed parameter manifest entry {meta!r}")


def load_model(path: str) -> tuple[ModelParams, SceneRelationGraph | None]:
    """Rebuild params (freshly initialized, then overwritten) and the graph.

    Every defect of the file, a malformed header, a non-finite parameter
    value and a graph that does not hold exactly the header's scene ids
    (`check_graph_scenes`) included, raises a ValueError naming the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:len(MAGIC)]
    if magic != MAGIC:
        raise ValueError(f"{path}: not a model file of this format (bad magic {magic!r})")
    start = len(MAGIC) + 8
    end = start
    if len(data) >= start:
        end += struct.unpack_from(">Q", data, len(MAGIC))[0]
    if not start < end <= len(data):
        raise ValueError(f"{path}: truncated header")
    try:
        header = json.loads(data[start:end].decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: model header is not JSON: {exc}") from None
    _check_header(path, header)
    payload = memoryview(data)[end:]

    manifest = header["params"]
    size = sum(math.prod(m["shape"]) * 8 for m in manifest)
    if size > len(payload):
        raise ValueError(f"{path}: truncated parameter payload")
    if size < len(payload):
        raise ValueError(f"{path}: trailing bytes in parameter payload")
    try:
        schema = FeatureSchema.from_json(header["schema"])
        config = ModelConfig.from_json(header["config"])
        # Shapes first: a header may describe more than the payload holds.
        shapes = param_shapes(header["kind"], schema, header["scene_ids"], config)
        graph = (graph_from_json(header["graph"]) if header["graph"] is not None
                 else None)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: bad model header: {exc!r}") from None
    if [n for n, _ in shapes] != [m["name"] for m in manifest]:
        raise ValueError(f"{path}: parameter manifest does not match this build")
    for (name, shape), meta in zip(shapes, manifest):
        if shape != tuple(meta["shape"]):
            raise ValueError(f"{path}: shape mismatch for {name}: "
                             f"{shape} != {tuple(meta['shape'])}")
    try:
        params = init_params(header["kind"], schema, header["scene_ids"], config,
                             seed=header["seed"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: bad model header: {exc!r}") from None

    offset = 0
    for (name, tensor), meta in zip(params.named_parameters(), manifest):
        shape = tuple(meta["shape"])
        size = math.prod(shape) * 8
        buf = np.frombuffer(payload[offset:offset + size], dtype="<f8")
        if not np.isfinite(buf).all():
            raise ValueError(f"{path}: parameter {name} holds non-finite values")
        tensor.data = buf.reshape(shape).astype(np.float64)
        offset += size
    if graph is not None:
        check_graph_scenes(graph, list(params.embeddings.scene_vocab), path)
    return params, graph
