"""Core data model: networks, flows, liability data, and their file formats.

A network is a pair (P, w): a nonnegative routing matrix P whose rows sum to
at most 1, and a nonnegative capacity vector w. Together with an exogenous
flow vector c it defines the saturated fixed-point system

    x = clamp(P' x + c)  with per-node clamping to [0, w].

Files are JSON, UTF-8:

* network file: ``{"n": int, "P": [[...]], "w": [...], "c": [...]?}``
* liability file: ``{"W": [[...]], "a": [...], "b": [...], "u": [...]}``

A liability file describes internal obligations W (W[i][j] owed by i to j),
external assets a, senior external liabilities b, and external financial
liabilities u; :func:`from_liabilities` converts it to a network with
w_i = sum_j W[i][j] + u_i, P[i][j] = W[i][j] / w_i and c = a - b.

Node indices are 0-based everywhere, including serialized output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FileFormatError, InputError

#: Absolute tolerance for the feasibility checks of routing fractions
#: (nonnegativity, row sums), which have no units. Inputs are human-scale
#: decimals; anything tighter rejects legitimate files. Quantities with
#: units (capacities, liabilities, assets) have no scale to be absolute
#: in, so their signs are judged exactly.
EPS_FEAS = 1e-9


def _as_matrix(value, name: str) -> np.ndarray:
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} is not a numeric matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} contains non-finite entries")
    return m


def _as_vector(value, name: str, n: int | None = None) -> np.ndarray:
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} is not a numeric vector: {exc}") from None
    if v.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise InputError(f"{name} has length {v.shape[0]}, expected {n}")
    if not np.all(np.isfinite(v)):
        raise InputError(f"{name} contains non-finite entries")
    return v


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` read-only; a copy unless it is already read-only and owns its memory."""
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Network:
    """Routing matrix and capacity vector; immutable after construction.

    Construction checks shapes and finiteness only. Value-level invariants
    (nonnegativity, sub-stochastic rows, nonnegative capacities) are checked
    by :func:`validate`, which reports rather than raises.

    Everything derived from (P, w) alone, such as the validation report
    behind :func:`require_valid` and the trapping-set structure, is computed
    on first use and kept on the object for every later call.
    """

    P: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        P = _as_matrix(self.P, "P")
        w = _as_vector(self.w, "w", P.shape[0])
        if P.shape[0] < 1:
            raise InputError("network must have at least one node")
        object.__setattr__(self, "P", _frozen(P))
        object.__setattr__(self, "w", _frozen(w))

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @cached_property
    def _validation(self) -> ValidationReport:
        return validate(self)


@dataclass(frozen=True)
class ExogenousFlow:
    """Net external inflow per node; entries may be negative."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen(_as_vector(self.c, "c")))

    @property
    def n(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class LiabilityData:
    """Raw obligation data: internal liabilities plus external positions.

    All entries must be nonnegative and W must have a zero diagonal;
    violations raise at construction.
    """

    W: np.ndarray
    a: np.ndarray
    b: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        W = _as_matrix(self.W, "W")
        n = W.shape[0]
        a = _as_vector(self.a, "a", n)
        b = _as_vector(self.b, "b", n)
        u = _as_vector(self.u, "u", n)
        for name, arr in (("W", W), ("a", a), ("b", b), ("u", u)):
            if np.any(arr < 0):
                raise InputError(f"{name} has negative entries")
        if np.any(np.diag(W) != 0):
            raise InputError("W must have a zero diagonal (no self-obligations)")
        object.__setattr__(self, "W", _frozen(W))
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))
        object.__setattr__(self, "u", _frozen(u))

    @property
    def n(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class EquilibriumVector:
    """A solution of the saturated fixed point, with its sup-norm residual."""

    x: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(_as_vector(self.x, "x")))
        object.__setattr__(self, "residual", float(self.residual))


@dataclass(frozen=True)
class Violation:
    kind: str  # "negative_entry" | "row_sum" | "negative_capacity"
    where: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "valid": self.ok,
            "violations": [
                {"kind": v.kind, "where": list(v.where), "message": v.message}
                for v in self.violations
            ],
        }


def as_flow(c, n: int) -> np.ndarray:
    """Coerce an ExogenousFlow or array-like into a validated length-n vector."""
    if isinstance(c, ExogenousFlow):
        c = c.c
    return _as_vector(c, "c", n)


def as_point(x, n: int) -> np.ndarray:
    """Coerce an EquilibriumVector or array-like into a validated length-n point."""
    if isinstance(x, EquilibriumVector):
        x = x.x
    return _as_vector(x, "x", n)


def saturate(y, w) -> np.ndarray:
    """Clamp a vector entrywise to the box [0, w]."""
    y = _as_vector(y, "y")
    w = _as_vector(w, "w", y.shape[0])
    if np.any(w < 0):
        raise InputError("capacity vector w must be nonnegative")
    return np.minimum(np.maximum(y, 0.0), w)


def validate(net: Network) -> ValidationReport:
    """Check the network invariants, returning a report instead of raising."""
    found: list[Violation] = []
    P, w = net.P, net.w
    for i, j in zip(*np.nonzero(P < -EPS_FEAS)):
        found.append(
            Violation("negative_entry", (int(i), int(j)),
                      f"P[{i}][{j}] = {P[i, j]} is negative")
        )
    row_sums = P.sum(axis=1)
    for i in np.nonzero(row_sums > 1.0 + EPS_FEAS)[0]:
        found.append(
            Violation("row_sum", (int(i),),
                      f"row {i} sums to {row_sums[i]}, exceeding 1")
        )
    for i in np.nonzero(w < 0)[0]:
        found.append(
            Violation("negative_capacity", (int(i),),
                      f"w[{i}] = {w[i]} is negative")
        )
    return ValidationReport(tuple(found))


def require_valid(net: Network) -> None:
    """Raise InputError if the network invariants do not hold."""
    report = net._validation
    if not report.ok:
        msgs = "; ".join(v.message for v in report.violations)
        raise InputError(f"invalid network: {msgs}")


def from_liabilities(data: LiabilityData) -> tuple[Network, ExogenousFlow]:
    """Convert obligation data into a network and exogenous flow.

    Rows of P belonging to nodes with total obligation zero are all-zero; no
    division takes place for them. Rows of nodes with external financial
    liabilities (u_i > 0) are strictly sub-stochastic.
    """
    w = data.W.sum(axis=1) + data.u
    P = np.zeros_like(data.W)
    pos = w > 0
    P[pos] = data.W[pos] / w[pos, None]
    c = data.a - data.b
    return Network(P, w), ExogenousFlow(c)


# ----------------------------- file handling -----------------------------


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top-level JSON value must be an object")
    return obj


def network_from_dict(obj: dict) -> tuple[Network, ExogenousFlow | None]:
    for key in ("n", "P", "w"):
        if key not in obj:
            raise FileFormatError(f"network object is missing key {key!r}")
    try:
        net = Network(obj["P"], obj["w"])
    except InputError as exc:
        raise FileFormatError(str(exc)) from None
    try:
        declared = int(obj["n"])
    except (TypeError, ValueError):
        raise FileFormatError(f"key 'n' must be an integer, got {obj['n']!r}") from None
    if declared != net.n:
        raise FileFormatError(f"declared n = {declared} but P is {net.n}x{net.n}")
    flow = None
    if obj.get("c") is not None:
        try:
            flow = ExogenousFlow(_as_vector(obj["c"], "c", net.n))
        except InputError as exc:
            raise FileFormatError(str(exc)) from None
    return net, flow


def liabilities_from_dict(obj: dict) -> LiabilityData:
    for key in ("W", "a", "b", "u"):
        if key not in obj:
            raise FileFormatError(f"liability object is missing key {key!r}")
    # InputError from the constructor propagates: a well-formed file whose
    # entries violate the invariants is a validation failure, not a parse one
    return LiabilityData(obj["W"], obj["a"], obj["b"], obj["u"])


def load_input(path):
    """Load a network or liability file, auto-detected by its keys.

    Returns ``(Network, ExogenousFlow | None)`` for a network file and
    ``LiabilityData`` for a liability file.
    """
    obj = _load_json(path)
    if "P" in obj and "w" in obj:
        return network_from_dict(obj)
    if "W" in obj and "u" in obj:
        return liabilities_from_dict(obj)
    raise FileFormatError(
        f"{path}: expected network keys (n, P, w) or liability keys (W, a, b, u)"
    )


def network_to_dict(net: Network, c=None) -> dict:
    out = {"n": net.n, "P": net.P.tolist(), "w": net.w.tolist()}
    if c is not None:
        out["c"] = as_flow(c, net.n).tolist()
    return out
