"""Weight checkpoint files.

Layout: one line of JSON (sorted keys, '\\n' terminated) followed by the
raw little-endian float32 tensor payloads concatenated in layer order
(weight then bias per parameterized layer). The header records the network
spec, a precision tag, the training seed and the tensor shapes, plus the
quantization block {bits, rounding, frac_bits} when the weights came out
of the quantizer; the tag is that block's `QuantConfig.tag`, or "fp32".
Writing is fully deterministic so identical inputs give byte-identical
files. The loader checks the header's tensor list against
the spec and the payload size against those tensors, builds the WeightSet
(which checks the quantization block against the payload), and raises
CheckpointError for any file it cannot read back whole.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ShapeMismatch
from .network import LayerSpec, LayerWeights, LifParams, NetworkSpec, WeightSet
from .quantize import QuantConfig

FORMAT_NAME = "spikedse-checkpoint-v1"


def _spec_from_dict(d: dict) -> NetworkSpec:
    return NetworkSpec(
        layers=tuple(LayerSpec(**layer) for layer in d["layers"]),
        input_window=d["input_window"],
        lif=LifParams(**d["lif"]),
    )


def save_checkpoint(
    path: str | Path,
    spec: NetworkSpec,
    weights: WeightSet,
    *,
    seed: int | None = None,
) -> Path:
    """Write spec + weights; returns the path written.

    Raises:
        ShapeMismatch: if a tensor the spec needs is missing or has another
            shape, so every file written loads back.
    """
    path = Path(path)
    tensors = []
    payload = bytearray()
    for i, name, shape in _tensor_list(spec):
        lw = weights.layers[i] if i < len(weights.layers) else None
        arr = np.asarray(getattr(lw, name, None))
        if list(arr.shape) != shape:
            raise ShapeMismatch(f"layer {i} {name} has shape {list(arr.shape)}, "
                                f"the spec needs {shape}")
        tensors.append({"layer": i, "name": name, "shape": shape})
        payload += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    quant = weights.quant
    header = {
        "format": FORMAT_NAME,
        "spec": asdict(spec),
        "precision": QuantConfig(quant["bits"], quant["rounding"]).tag if quant else "fp32",
        "seed": seed,
        "tensors": tensors,
        "quant": quant,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(bytes(payload))
    return path


def _tensor_list(spec: NetworkSpec) -> list[tuple[int, str, list[int]]]:
    """(layer, name, shape) of every tensor the spec needs, in file order."""
    out = []
    for i, layer in enumerate(spec.layers):
        if layer.weight_shape is not None:
            out += [(i, "weight", list(layer.weight_shape)),
                    (i, "bias", [layer.out_channels])]
    return out


def load_checkpoint(path: str | Path) -> tuple[NetworkSpec, WeightSet, dict]:
    """Read a checkpoint back; returns (spec, weights, header).

    Raises:
        CheckpointError: if the header line is missing or not JSON, is not
            this format, lacks a key, lists tensors other than the spec's,
            the payload is shorter or longer than those tensors, or the
            quant block is one `WeightSet` refuses for that payload.
    """
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: no header line")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise CheckpointError(f"{path}: header is not JSON ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path}: not a {FORMAT_NAME} file")
    with CheckpointError.guard(str(path)):
        spec = _spec_from_dict(header["spec"])
        listed = [(e["layer"], e["name"], e["shape"]) for e in header["tensors"]]
    expected = _tensor_list(spec)
    if listed != expected:
        raise CheckpointError(
            f"{path}: tensors {listed} do not match the spec's {expected}"
        )
    sizes = [math.prod(shape) for _, _, shape in expected]
    offset = newline + 1
    if len(data) - offset != 4 * sum(sizes):
        raise CheckpointError(
            f"{path}: payload has {len(data) - offset} bytes, "
            f"its tensors need {4 * sum(sizes)}"
        )

    arrays = []
    for (_, _, shape), n in zip(expected, sizes):
        arr = np.frombuffer(data, dtype="<f4", count=n, offset=offset)
        arrays.append(arr.reshape(shape).astype(float))
        offset += 4 * n
    layers: list[LayerWeights | None] = [None] * len(spec.layers)
    for (i, _, _), weight, bias in zip(expected[::2], arrays[::2], arrays[1::2]):
        layers[i] = LayerWeights(weight, bias)
    with CheckpointError.guard(str(path)):
        weights = WeightSet(layers, quant=header.get("quant"))
    return spec, weights, header
