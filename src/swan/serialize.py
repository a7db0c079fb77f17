"""Versioned binary model files.

Layout: 8-byte magic "SWANMDL2", a big-endian uint64 header length, a
UTF-8 JSON header (kind, config, schema, scene ids, graph, parameter
manifest), then the raw little-endian float64 parameter buffers in
manifest order. Serialization is byte-deterministic for identical
parameters.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .features import FeatureSchema
from .model import (DnnParams, ModelConfig, SwanParams, init_dnn_params,
                    init_swan_params)
from .srg import SceneRelationGraph, graph_from_json, graph_to_json

MAGIC = b"SWANMDL2"


def save_model(params: SwanParams | DnnParams, path: str,
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


def load_model(path: str) -> tuple[SwanParams | DnnParams, SceneRelationGraph | None]:
    """Rebuild params (zero-initialized, then overwritten) and the graph."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:len(MAGIC)]
    if magic != MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic {magic!r})")
    start = len(MAGIC) + 8
    end = start
    if len(data) >= start:
        end += struct.unpack_from(">Q", data, len(MAGIC))[0]
    if not start < end <= len(data):
        raise ValueError(f"{path}: truncated header")
    header = json.loads(data[start:end].decode("utf-8"))
    payload = memoryview(data)[end:]

    init = {"swan": init_swan_params, "dnn": init_dnn_params}.get(header["kind"])
    if init is None:
        raise ValueError(f"{path}: unknown model kind {header['kind']!r}")
    params = init(FeatureSchema.from_json(header["schema"]), header["scene_ids"],
                  ModelConfig.from_json(header["config"]), seed=header["seed"])

    named = params.named_parameters()
    manifest = header["params"]
    if [n for n, _ in named] != [m["name"] for m in manifest]:
        raise ValueError(f"{path}: parameter manifest does not match this build")
    offset = 0
    for (name, tensor), meta in zip(named, manifest):
        shape = tuple(meta["shape"])
        if tensor.shape != shape:
            raise ValueError(f"{path}: shape mismatch for {name}: "
                             f"{tensor.shape} != {shape}")
        size = int(np.prod(shape, dtype=np.int64)) * 8
        if offset + size > len(payload):
            raise ValueError(f"{path}: truncated parameter payload")
        buf = np.frombuffer(payload[offset:offset + size], dtype="<f8")
        tensor.data = buf.reshape(shape).astype(np.float64)
        offset += size
    if offset != len(payload):
        raise ValueError(f"{path}: trailing bytes in parameter payload")

    graph = graph_from_json(header["graph"]) if header["graph"] is not None else None
    return params, graph
