"""Strict JSON instance files and canonical report serialization.

An instance file describes one market, and this module is the one place
that reads it: `load_instance` returns the MarketInstance every command
acts on.  A `risk` section replaces the `uncertainty` set and the scalings
`a` with the set built from the risk data (fixed demand only).  A file holds
no run settings; seeds and sample counts come from the caller.

The schema is versioned and closed: unknown keys anywhere are rejected with
the offending field named, so golden files cannot drift silently.  Canonical
serialization writes numbers with 17 significant digits (floats round-trip
exactly) and non-finite values as the strings "Infinity", "-Infinity",
"NaN"; re-parsing and re-emitting a canonical document reproduces it byte
for byte.
"""

import hashlib
import json
import math

import numpy as np

from robust_peakload.geometry import Polytope, box, hull_to_inequalities, simplex
from robust_peakload.market import AffineElastic, Fixed, MarketInstance, Producer
from robust_peakload.risk import CoherentSpec, VarSpec, _risk_market

SCHEMA_VERSION = "1"

_TOP_KEYS = {"schema_version", "periods", "producers", "demand",
             "uncertainty", "risk"}
_PRODUCER_KEYS = {"c_inv", "c_var", "a"}
_DEMAND_KEYS = {"mode", "d", "alpha", "beta"}
_UNCERTAINTY_KEYS = {"form", "P", "r", "list"}
_RISK_KEYS = {"var", "coherent"}
_VAR_KEYS = {"alpha", "marginal_var"}
_COHERENT_KEYS = {"scenarios", "Q"}
_Q_KEYS = {"P", "r"}


class SchemaError(ValueError):
    """Instance file violates the schema; the message names the field."""


# ---------------------------------------------------------------------------
# canonical serialization


def format_number(value) -> str:
    """17-significant-digit decimal form; exact for binary64 round trips."""
    value = float(value)
    if math.isnan(value):
        return '"NaN"'
    if math.isinf(value):
        return '"Infinity"' if value > 0 else '"-Infinity"'
    if value == 0.0:
        value = 0.0  # fold -0.0 so the text re-parses to the same bytes
    return f"{value:.17g}"


def canonical_dumps(obj) -> str:
    """Deterministic JSON text in document key order."""
    if isinstance(obj, dict):
        parts = (f"{json.dumps(str(k))}: {canonical_dumps(v)}"
                 for k, v in obj.items())
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return canonical_dumps(obj.tolist())
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_number(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def instance_digest(data: dict) -> str:
    """Content hash of the parsed instance data, formatting-independent."""
    payload = canonical_dumps(data).encode("utf-8")
    return "sha256:" + hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# schema checks


def _require_keys(section, mapping, allowed, required):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{section} must be an object")
    for key in mapping:
        if key not in allowed:
            raise SchemaError(f"unknown key '{key}' in {section}")
    for key in required:
        if key not in mapping:
            raise SchemaError(f"missing key '{key}' in {section}")


def _number(section, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{section} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise SchemaError(f"{section} must be finite")
    return value


def _vector(section, value, length=None):
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{section} must be a non-empty array")
    out = np.array([_number(f"{section}[{i}]", v) for i, v in enumerate(value)])
    if length is not None and out.size != length:
        raise SchemaError(f"{section} must have length {length}")
    return out


def _matrix(section, value, width=None):
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{section} must be a non-empty array of rows")
    rows = [_vector(f"{section}[{i}]", row, width) for i, row in enumerate(value)]
    widths = {row.size for row in rows}
    if len(widths) != 1:
        raise SchemaError(f"{section} rows must share one length")
    return np.stack(rows)


def _count(section, value, minimum=0):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{section} must be an integer")
    if value < minimum:
        raise SchemaError(f"{section} must be at least {minimum}")
    return value


# ---------------------------------------------------------------------------
# parsing


def _build(section, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError re-raised as a SchemaError that
    names the section."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{section}: {exc}") from exc


def _risk_spec(risk_data, N):
    """The VarSpec or CoherentSpec of a file's `risk` section."""
    _require_keys("risk", risk_data, _RISK_KEYS, [])
    if len(risk_data) != 1:
        raise SchemaError("risk must hold exactly one of 'var', 'coherent'")
    if "var" in risk_data:
        var_data = risk_data["var"]
        _require_keys("risk.var", var_data, _VAR_KEYS, ["alpha", "marginal_var"])
        return _build("risk.var", VarSpec,
                      alpha=_number("risk.var.alpha", var_data["alpha"]),
                      marginal_var=_vector("risk.var.marginal_var",
                                           var_data["marginal_var"], N))
    coh = risk_data["coherent"]
    _require_keys("risk.coherent", coh, _COHERENT_KEYS, ["scenarios", "Q"])
    scenarios = _matrix("risk.coherent.scenarios", coh["scenarios"], N)
    K = scenarios.shape[0]
    _require_keys("risk.coherent.Q", coh["Q"], _Q_KEYS, ["P", "r"])
    if coh["Q"]["P"] == [] and coh["Q"]["r"] == []:
        # No rows: Q is cut down to the full probability simplex.
        QP, Qr = np.zeros((0, K)), np.zeros(0)
    else:
        QP = _matrix("risk.coherent.Q.P", coh["Q"]["P"], K)
        Qr = _vector("risk.coherent.Q.r", coh["Q"]["r"], QP.shape[0])
    return _build("risk.coherent", CoherentSpec, scenarios, Polytope(K, QP, Qr))


def parse_instance_data(data: dict) -> MarketInstance:
    """Validate a parsed instance document and build its market.

    A `risk` section replaces the `uncertainty` set and the producers'
    scalings `a` with the set built from the risk data and its scale
    (`risk._risk_market`); it requires fixed demand.  Any violation raises
    a SchemaError that names the field."""
    _require_keys("instance", data, _TOP_KEYS,
                  ["schema_version", "periods", "producers", "demand",
                   "uncertainty"])
    if data["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            f"schema_version must be '{SCHEMA_VERSION}', "
            f"got {data['schema_version']!r}")
    T = _count("periods", data["periods"], minimum=1)

    raw_producers = data["producers"]
    if not isinstance(raw_producers, list) or not raw_producers:
        raise SchemaError("producers must be a non-empty array")
    producers = []
    for i, entry in enumerate(raw_producers):
        section = f"producers[{i}]"
        _require_keys(section, entry, _PRODUCER_KEYS, ["c_inv", "c_var"])
        producers.append(_build(
            section, Producer,
            c_inv=_number(f"{section}.c_inv", entry["c_inv"]),
            c_var=_number(f"{section}.c_var", entry["c_var"]),
            a=_number(f"{section}.a", entry.get("a", 0.0))))
    N = len(producers)

    demand_data = data["demand"]
    _require_keys("demand", demand_data, _DEMAND_KEYS, ["mode"])
    mode = demand_data["mode"]
    if mode == "fixed":
        _require_keys("demand", demand_data, {"mode", "d"}, ["d"])
        demand = _build("demand.d", Fixed,
                        _vector("demand.d", demand_data["d"], T))
    elif mode == "elastic":
        _require_keys("demand", demand_data, {"mode", "alpha", "beta"},
                      ["alpha", "beta"])
        demand = _build("demand", AffineElastic,
                        _vector("demand.alpha", demand_data["alpha"], T),
                        _vector("demand.beta", demand_data["beta"], T))
    else:
        raise SchemaError("demand.mode must be 'fixed' or 'elastic'")

    unc = data["uncertainty"]
    _require_keys("uncertainty", unc, _UNCERTAINTY_KEYS, ["form"])
    form = unc["form"]
    if form == "box":
        _require_keys("uncertainty", unc, {"form"}, [])
        uncertainty = box(N)
    elif form == "simplex":
        _require_keys("uncertainty", unc, {"form"}, [])
        uncertainty = simplex(N)
    elif form == "inequalities":
        _require_keys("uncertainty", unc, {"form", "P", "r"}, ["P", "r"])
        P = _matrix("uncertainty.P", unc["P"], N)
        r = _vector("uncertainty.r", unc["r"], P.shape[0])
        uncertainty = Polytope(N, P, r)
    elif form == "vertices":
        _require_keys("uncertainty", unc, {"form", "list"}, ["list"])
        V = _matrix("uncertainty.list", unc["list"], N)
        uncertainty = _build("uncertainty.list", hull_to_inequalities, V)
    else:
        raise SchemaError("uncertainty.form must be one of "
                          "'box', 'simplex', 'inequalities', 'vertices'")

    instance = _build("uncertainty", MarketInstance, producers=producers,
                      demand=demand, T=T, uncertainty=uncertainty)
    if "risk" in data:
        instance = _build("risk", _risk_market, instance,
                          _risk_spec(data["risk"], N))
    return instance


def load_instance(path: str):
    """Read and validate an instance file.

    Returns (MarketInstance, digest); the digest hashes the file's content,
    not its formatting."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read instance file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed instance file at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise SchemaError("instance file must hold a JSON object")
    return parse_instance_data(data), instance_digest(data)


# ---------------------------------------------------------------------------
# emission


def instance_to_data(inst: MarketInstance) -> dict:
    """Serializable document for a MarketInstance; uncertainty is emitted in
    inequality form (exact for any polytope).  Raises ValueError for a
    producer with per-period scalings, which the schema cannot hold."""
    for i, p in enumerate(inst.producers):
        if p.a_by_period is not None:
            raise ValueError(f"producers[{i}] has per-period scalings "
                             "(a_by_period), which instance files cannot hold")
    data = {
        "schema_version": SCHEMA_VERSION,
        "periods": int(inst.T),
        "producers": [{"c_inv": p.c_inv, "c_var": p.c_var, "a": p.a}
                      for p in inst.producers],
    }
    if isinstance(inst.demand, Fixed):
        data["demand"] = {"mode": "fixed", "d": inst.demand.d.tolist()}
    else:
        data["demand"] = {"mode": "elastic",
                          "alpha": inst.demand.alpha.tolist(),
                          "beta": inst.demand.beta.tolist()}
    data["uncertainty"] = {"form": "inequalities",
                           "P": inst.uncertainty.P.tolist(),
                           "r": inst.uncertainty.r.tolist()}
    return data


def write_instance(path: str, data: dict) -> None:
    """Write `data` as a canonical instance file; an unwritable path raises
    ValueError naming it."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(canonical_dumps(data) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write instance file: {exc}") from exc
