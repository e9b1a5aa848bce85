"""Model configuration files for the command-line interface.

A config is a single JSON object describing the infinite matrix and,
optionally, the boundary policy:

    {"kind": "banded", "offsets": [-1, 0, 1], "stencil": [-1.0, 3.0, -1.0],
     "envelope": {"c": 1.0, "norm_bound": 5.0, "d": 0.0},
     "boundary": {"kind": "zero"}}

    {"kind": "lattice", "a": 1.0, "b": 1.0,
     "boundary": {"kind": "periodic"}}

Boundary kinds: "zero" (default for banded), "periodic" (lattice only,
default for lattice), or "corners" with explicit entries
``[[i, j, re, im], ...]`` tied to a fixed window's corner indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Real

from .core import BoundarySpec, InfiniteMatrixSpec, SpectralEnvelope, banded_spec
from .driver import BoundaryPolicy, zero_boundary
from .errors import ConfigError
from .lattice import LatticeModelParams, lattice_spec, periodic_policy


@dataclass
class ModelConfig:
    """Parsed model: the matrix spec plus the boundary policy to use."""

    spec: InfiniteMatrixSpec
    boundary_policy: BoundaryPolicy


def _require(data: dict, field: str, context: str):
    if field not in data:
        raise ConfigError(f"missing field '{field}' in {context}")
    return data[field]


def _real(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"field '{field}' must be a real number, got {value!r}")
    return float(value)


def _parse_envelope(data, context: str) -> SpectralEnvelope:
    if not isinstance(data, dict):
        raise ConfigError(f"field 'envelope' in {context} must be an object")
    c = _real(_require(data, "c", "envelope"), "envelope.c")
    norm_bound = _real(_require(data, "norm_bound", "envelope"), "envelope.norm_bound")
    d = _real(data.get("d", 0.0), "envelope.d")
    try:
        return SpectralEnvelope(c=c, norm_bound=norm_bound, d=d)
    except ValueError as exc:
        raise ConfigError(f"invalid envelope: {exc}") from exc


def _parse_boundary(data, kind: str) -> BoundaryPolicy | None:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ConfigError("field 'boundary' must be an object")
    bkind = _require(data, "kind", "boundary")
    if bkind == "zero":
        return zero_boundary
    if bkind == "periodic":
        if kind != "lattice":
            raise ConfigError("boundary kind 'periodic' requires a lattice model")
        return None  # resolved by the caller with the lattice params
    if bkind == "corners":
        raw = _require(data, "entries", "boundary")
        if not isinstance(raw, list):
            raise ConfigError("field 'boundary.entries' must be a list")
        entries = {}
        for item in raw:
            if not (isinstance(item, list) and len(item) == 4):
                raise ConfigError(
                    f"boundary entry {item!r} must be [i, j, re, im]"
                )
            i, j, re, im = item
            if not isinstance(i, int) or not isinstance(j, int):
                raise ConfigError(f"boundary entry indices must be integers: {item!r}")
            entries[(i, j)] = complex(
                _real(re, "boundary.entries re"), _real(im, "boundary.entries im")
            )
        fixed = BoundarySpec(entries)

        def corners_policy(window):
            return fixed

        return corners_policy
    raise ConfigError(f"unknown boundary kind {bkind!r}")


def parse_config(data: dict) -> ModelConfig:
    """Build a model from a parsed JSON object."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    kind = _require(data, "kind", "config")
    boundary = _parse_boundary(data.get("boundary"), kind)

    if kind == "lattice":
        a = _real(_require(data, "a", "lattice config"), "a")
        b = _real(_require(data, "b", "lattice config"), "b")
        try:
            params = LatticeModelParams(a=a, b=b)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        policy = boundary if boundary is not None else periodic_policy(params)
        return ModelConfig(lattice_spec(params), policy)

    if kind == "banded":
        offsets = _require(data, "offsets", "banded config")
        stencil = _require(data, "stencil", "banded config")
        if not isinstance(offsets, list) or not all(isinstance(o, int) for o in offsets):
            raise ConfigError("field 'offsets' must be a list of integers")
        if not isinstance(stencil, list) or len(stencil) != len(offsets):
            raise ConfigError("field 'stencil' must be a list matching 'offsets'")
        values = [_real(v, "stencil") for v in stencil]
        envelope = _parse_envelope(_require(data, "envelope", "banded config"), "banded config")
        try:
            spec = banded_spec(offsets, values, envelope)
        except ValueError as exc:
            raise ConfigError(f"invalid banded spec: {exc}") from exc
        policy = boundary if boundary is not None else zero_boundary
        return ModelConfig(spec, policy)

    raise ConfigError(f"unknown model kind {kind!r}")


def load_config(path: str) -> ModelConfig:
    """Read and parse a model config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)
