"""JSON model files and machine-readable numeric emission.

Model file schema:

    {
      "dim": n,
      "generator":     {"dense": [[...]]} | {"builder": {"name": ..., "params": {...}}},
      "covariance":    ... same forms ...,
      "time_reversal": ... same forms ... | null,
      "label": "..."
    }

A builder reference is accepted anywhere a matrix is expected; it names one
of the shipped builders (toy | chain | chain_inhomogeneous) and the matrix
is taken from the corresponding field of the built model.  All floats are
emitted with %.17g so that load -> emit -> load is bit-identical.
"""

import json
import math

import numpy as np

from .model import Model
from .models import ChainSpec, ToySpec, build_chain, build_toy


class ParseError(ValueError):
    """Malformed model file; carries line/column information when available."""


def _format_float(x):
    if math.isinf(x):
        return "1e999" if x > 0 else "-1e999"
    if math.isnan(x):
        return "NaN"
    text = "%.17g" % x
    # keep a decimal point so JSON parses the value (incl. -0.0) as a float
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def dumps_17g(obj, indent=0):
    """JSON with floats rendered as %.17g (round-trips float64 exactly)."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps_17g(v, indent + 2).lstrip()}' for k, v in obj.items()
        )
        return f"{pad}{{\n{items}\n{pad}}}" if obj else pad + "{}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            return pad + "[" + ", ".join(dumps_17g(v).strip() for v in seq) + "]"
        items = ",\n".join(dumps_17g(v, indent + 2) for v in seq)
        return f"{pad}[\n{items}\n{pad}]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, (float, np.floating)):
        return pad + _format_float(float(obj))
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if obj is None:
        return pad + "null"
    return pad + json.dumps(obj)


_BUILDERS = {}


def _builder_model(spec_dict):
    """Build (and memoize) the model referenced by a builder dictionary."""
    key = json.dumps(spec_dict, sort_keys=True)
    if key in _BUILDERS:
        return _BUILDERS[key]
    name = spec_dict.get("name")
    params = dict(spec_dict.get("params", {}))
    if name == "toy":
        model, _ = build_toy(ToySpec(**params))
    elif name == "chain":
        if "temps" in params:
            params["temps"] = tuple(params["temps"])
        model, _ = build_chain(ChainSpec(**params))
    elif name == "chain_inhomogeneous":
        omega = np.asarray(params.pop("omega"), dtype=float)
        kappa = np.asarray(params.pop("kappa"), dtype=float)
        if "temps" in params:
            params["temps"] = tuple(params["temps"])
        model, _ = build_chain(ChainSpec(inhomogeneous=(omega, kappa), **params))
    else:
        raise ParseError(f"unknown builder {name!r}; expected toy, chain or chain_inhomogeneous")
    _BUILDERS[key] = model
    return model


def _matrix_from_spec(entry, role, dim):
    if entry is None:
        return None
    if not isinstance(entry, dict):
        raise ParseError(f"{role} must be an object with 'dense' or 'builder'")
    if "dense" in entry:
        mat = np.asarray(entry["dense"], dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ParseError(f"{role}.dense must be a square matrix")
        return mat
    if "builder" in entry:
        model = _builder_model(entry["builder"])
        value = getattr(model, role)
        if value is None:
            raise ParseError(f"builder model has no {role}")
        if dim is not None and value.shape != (dim, dim):
            raise ParseError(f"builder {role} is {value.shape}, file says dim={dim}")
        return value
    raise ParseError(f"{role} needs either 'dense' or 'builder'")


def load_model(path):
    """Load a Model from a JSON file; parse errors carry line/column."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for field_name in ("dim", "generator", "covariance"):
        if field_name not in doc:
            raise ParseError(f"{path}: missing required field {field_name!r}")
    dim = int(doc["dim"])
    gen = _matrix_from_spec(doc["generator"], "generator", dim)
    cov = _matrix_from_spec(doc["covariance"], "covariance", dim)
    theta = _matrix_from_spec(doc.get("time_reversal"), "time_reversal", dim)
    return Model(dim=dim, generator=gen, covariance=cov, time_reversal=theta,
                 label=str(doc.get("label", "")))


def save_model(model, path):
    """Write a Model as dense JSON with exact float round-trip."""
    doc = {
        "dim": model.dim,
        "generator": {"dense": model.generator},
        "covariance": {"dense": model.covariance},
        "time_reversal": None if model.time_reversal is None else {"dense": model.time_reversal},
        "label": model.label,
    }
    with open(path, "w") as fh:
        fh.write(dumps_17g(doc) + "\n")
