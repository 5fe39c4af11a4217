"""Core data model: networks, flows, liability data, and their file formats.

A network is a pair (P, w): a nonnegative routing matrix P whose rows sum to
at most 1, and a nonnegative capacity vector w. Together with an exogenous
flow vector c it defines the saturated fixed-point system

    x = clamp(P' x + c)  with per-node clamping to [0, w].

Files are JSON, UTF-8:

* network file: ``{"n": int, "P": [[...]], "w": [...], "c": [...]?}``
* liability file: ``{"W": [[...]], "a": [...], "b": [...], "u": [...]}``

Layout and the way zeros are written do not change what a file reads as.
A network file that is large and sparse by the hunt's bounds
(``_linear._is_sparse``, counting the entries of P not written as the
literal ``0``) has its P read straight from the file's bytes, so only those
entries become Python floats; the rest of the file, and every other file,
goes through ``json.loads``. The two readings
give P the same bits, and every error comes from the second.

A liability file describes internal obligations W (W[i][j] owed by i to j),
external assets a, senior external liabilities b, and external financial
liabilities u; :func:`from_liabilities` converts it to a network with
w_i = sum_j W[i][j] + u_i, P[i][j] = W[i][j] / w_i and c = a - b.

Node indices are 0-based everywhere, including serialized output.
"""

from __future__ import annotations

import io
import json
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._linear import DenseBlock, EdgeBlock, _is_sparse
from .errors import FileFormatError, InputError

#: Absolute tolerance for the feasibility checks of routing fractions
#: (nonnegativity, row sums), which have no units. Inputs are human-scale
#: decimals; anything tighter rejects legitimate files. Quantities with
#: units (capacities, liabilities, assets) have no scale to be absolute
#: in, so their signs are judged exactly.
EPS_FEAS = 1e-9


def _as_matrix(value, name: str) -> np.ndarray:
    """``value`` as a square float matrix; its entries are not checked."""
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} is not a numeric matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} contains non-finite entries")


def _as_vector(value, name: str, n: int | None = None) -> np.ndarray:
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} is not a numeric vector: {exc}") from None
    if v.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise InputError(f"{name} has length {v.shape[0]}, expected {n}")
    _require_finite(v, name)
    return v


def _as_int(value, name: str) -> int:
    """``value`` as an int; anything else, a bool or an integral float included, raises InputError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer")
    return int(value)


def _as_number(value, name: str):
    """``value`` itself if it is a real number; anything else, a bool or a numeric string included, raises InputError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputError(f"{name} must be a number")
    return value


def _frozen(a: np.ndarray, source) -> np.ndarray:
    """``a``, converted from ``source``, read-only and C-ordered.

    An array built from a list or tuple is nobody else's, so it is frozen in
    place. Any other is copied unless it is already read-only, C-ordered and
    owns its memory.
    """
    if isinstance(source, (list, tuple)):
        a.setflags(write=False)
    elif a.flags.writeable or not a.flags.owndata or not a.flags.c_contiguous:
        a = a.copy()
        a.setflags(write=False)
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Rows(Sequence):
    """A read-only sequence of ``n`` items that ``take(ls)`` builds, as a list, at the indices ``ls`` (an array).

    An item is built each time it is read and not kept: iteration takes all at once, a slice
    is a tuple. Like a list, a Rows equals another item by item and is not hashable.
    """

    def __init__(self, n: int, take):
        self._n, self._take = n, take

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        rows = range(self._n)[i]  # an index checked and made nonnegative, or a range
        if isinstance(i, slice):
            return tuple(self._take(np.arange(rows.start, rows.stop, rows.step)))
        return self._take(np.array([rows]))[0]

    def __iter__(self):
        return iter(self._take(np.arange(self._n)))

    def __eq__(self, other):
        return isinstance(other, Rows) and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return f"Rows{tuple(self)!r}"


def _scan(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The True entries of a square mask, row-major: (rows, cols), read-only."""
    return tuple(map(_readonly, divmod(np.flatnonzero(mask), mask.shape[0])))


@dataclass(frozen=True)
class Network:
    """Routing matrix and capacity vector; immutable after construction.

    Construction checks shapes and finiteness only. Value-level invariants
    (nonnegativity, sub-stochastic rows, nonnegative capacities) are checked
    by :func:`validate`, which reports rather than raises. Construction keeps
    the row sums of P it checks finiteness by as ``_row_sums``, read-only,
    which ``validate``, ``decompose`` and ``deficiency_set`` read; a row whose
    sum overflows sums to inf, which exceeds 1 like any other.

    Construction also decides, once, how P is held as the operator that
    certifies every result (``_network_block``), by the hunt's bounds
    (``_linear._is_sparse``). A network of at least ``SPARSE_MIN`` nodes
    counts its mask ``P != 0``. If it is listed, it scans the mask and
    gathers the values of its nonzeros: a non-finite entry is nonzero, so
    the values alone are checked for finiteness, each row is summed over its
    nonzeros in column order, and its operator is the ``EdgeBlock`` of the
    whole network, kept for life. Any other network drops the mask, sums P
    row by row (``P.sum(axis=1)``), checks it entry by entry only when a sum
    is not finite, and its operator is the ``DenseBlock`` ``P[None]``.

    Everything derived from (P, w) alone, such as the validation report
    behind :func:`require_valid` and the trapping-set structure, is computed
    on first use and kept on the object for every later call.
    """

    P: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        P = _frozen(_as_matrix(self.P, "P"), self.P)
        n = P.shape[0]
        mask = P != 0 if _is_sparse(n, 0) else None  # a network too small to list is not scanned
        if mask is not None and _is_sparse(n, np.count_nonzero(mask)):
            rows, cols = _scan(mask)
            vals = _readonly(P[rows, cols])
            _require_finite(vals, "P")
            # bincount of no weights counts in int64
            sums = np.bincount(rows, vals, n).astype(float, copy=False)
            block = EdgeBlock(rows, cols, vals, _readonly(np.arange(n)))
        else:
            del mask
            # a non-finite entry makes its row sum NaN or infinite, so the entries
            # are scanned only when some sum is; a sum that overflows is no fault
            with np.errstate(over="ignore", invalid="ignore"):
                sums = P.sum(axis=1)
            if not np.all(np.isfinite(sums)):
                _require_finite(P, "P")
            block = DenseBlock(P[None])
        w = _as_vector(self.w, "w", n)
        if n < 1:
            raise InputError("network must have at least one node")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "w", _frozen(w, self.w))
        object.__setattr__(self, "_row_sums", _readonly(sums))
        object.__setattr__(self, "_network_block", block)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @cached_property
    def _validation(self) -> ValidationReport:
        return validate(self)

    @cached_property
    def _min_entry(self) -> float:
        """The smallest entry of P, up to the sign of a zero.

        ``validate`` reads it for negative entries beyond ``EPS_FEAS``, and
        ``decompose`` for any negative entry, which is no edge; both compare
        it with a negative number or zero, where ``-0.0`` and ``0.0`` agree.
        A listed network reads it off the values of its nonzeros, with 0
        standing for the zero entries its list leaves out; a dense one takes
        one pass of ``P.min()``.
        """
        block = self._network_block
        return float(block.vals.min(initial=0.0) if isinstance(block, EdgeBlock) else self.P.min())

    @cached_property
    def _nonzeros(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries P[i, j] != 0, row-major: (rows, cols), read-only.

        A listed network's are those of its operator, scanned at
        construction, so a fresh sparse Network reads P once on its way to
        ``block_structure``; a dense one scans ``P != 0`` here, on first
        use. ``decompose`` reads its positive entries (the same arrays when
        no entry is negative); ``block_structure`` takes the edge lists of
        its large sparse blocks from them, and drops them once built.
        """
        block = self._network_block
        return (block.rows, block.cols) if isinstance(block, EdgeBlock) else _scan(self.P != 0)


@dataclass(frozen=True)
class ExogenousFlow:
    """Net external inflow per node; entries may be negative."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _frozen(_as_vector(self.c, "c"), self.c))

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
        _require_finite(W, "W")
        n = W.shape[0]
        a = _as_vector(self.a, "a", n)
        b = _as_vector(self.b, "b", n)
        u = _as_vector(self.u, "u", n)
        for name, arr in (("W", W), ("a", a), ("b", b), ("u", u)):
            if np.any(arr < 0):
                raise InputError(f"{name} has negative entries")
        if np.any(np.diag(W) != 0):
            raise InputError("W must have a zero diagonal (no self-obligations)")
        object.__setattr__(self, "W", _frozen(W, self.W))
        object.__setattr__(self, "a", _frozen(a, self.a))
        object.__setattr__(self, "b", _frozen(b, self.b))
        object.__setattr__(self, "u", _frozen(u, self.u))

    @property
    def n(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class EquilibriumVector:
    """A solution of the saturated fixed point, with its sup-norm residual."""

    x: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(_as_vector(self.x, "x"), self.x))
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
    """Check the network invariants, returning a report instead of raising.

    Violations are listed by kind (negative entries row-major, then row sums,
    then capacities). P's entries are scanned one by one only when its
    minimum is below ``-EPS_FEAS``; the minimum and the row sums are the
    Network's own.
    """
    found: list[Violation] = []
    P, w = net.P, net.w
    if net._min_entry < -EPS_FEAS:
        for i, j in zip(*np.nonzero(P < -EPS_FEAS)):
            found.append(
                Violation("negative_entry", (int(i), int(j)),
                          f"P[{i}][{j}] = {P[i, j]} is negative")
            )
    row_sums = net._row_sums
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


#: The top-level key of a network's routing matrix, up to the bracket that opens it.
_P_KEY = re.compile(rb'"P"[ \t\n\r]*:[ \t\n\r]*\[')
#: Numbers of the JSON grammar (RFC 8259), one space apart.
_NUMBERS = re.compile(rb"(?:-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?(?: |$))*")
#: Bytes of P classified at once: a dozen masks this long are alive together,
#: which keeps them well below P itself on a large file.
_CHUNK = 1 << 18
_COMMA, _OPEN, _CLOSE, _ZERO = b",[]0"
#: What stands in the rest of the document for P while it is parsed.
_SPAN = object()


def _load_json(path) -> dict:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from None
    obj = _sparse_network_object(data)
    if obj is not None:
        return obj
    try:  # decoded as read_text decodes, newlines included
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not valid UTF-8: {exc}") from None
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FileFormatError(f"{path}: top-level JSON value must be an object")
    return obj


def _sparse_network_object(data: bytes) -> dict | None:
    """The document of a large sparse network file, P read from its bytes; None to decline.

    A network file whose P has n rows and at most the nonzeros of a large
    sparse network (``_is_sparse`` of n and the tokens of P that are not
    the literal ``0``) gets P as a read-only ndarray, bit for
    bit what ``json.loads`` and ``np.asarray`` would make of it: only those
    tokens become Python floats. The rest of the document is parsed by
    ``json.loads`` with ``NaN`` in place of P, and is taken only if that
    ``NaN`` is the document's one constant and its top-level ``"P"``, which
    rules out a duplicate, nested or quoted ``"P"``. Any other file, and any
    deviation from the grammar, is declined, so that every error comes from
    the ``json.loads`` path.
    """
    key = _P_KEY.search(data)
    if key is None:
        return None
    lo = key.end() - 1
    # P holds no quote or brace, so it ends at the last bracket before the first of them
    quote = data.find(b'"', lo)
    end = len(data) if quote < 0 else quote
    brace = data.find(b"}", lo, end)
    hi = data.rfind(b"]", lo, end if brace < 0 else brace) + 1
    if hi <= lo:
        return None
    # the first row's length; every row is checked against it, and their number
    n = data.count(b",", lo, data.find(b"]", lo, hi)) + 1
    if not _is_sparse(n, 0):
        return None
    constants = []

    def constant(name):
        constants.append(name)
        return _SPAN

    try:
        obj = json.loads((data[:lo] + b"NaN" + data[hi:]).decode("utf-8"), parse_constant=constant)
    except (ValueError, RecursionError):
        return None
    if len(constants) != 1 or not isinstance(obj, dict) or obj.get("P") is not _SPAN:
        return None
    P = _sparse_matrix(data, lo, hi, n)
    if P is None:
        return None
    obj["P"] = P
    return obj


def _sparse_matrix(data: bytes, lo: int, hi: int, n: int) -> np.ndarray | None:
    """``data[lo:hi]`` as an n x n matrix of at most ``_is_sparse`` nonzero tokens, or None.

    Read a chunk of rows at a time (``_sparse_rows``, whose masks are freed
    before P is allocated). Each nonzero token
    must match the JSON number grammar, and becomes the float that
    ``json.loads`` and ``np.asarray`` make of it: ``float(tok)``, or
    ``float(int(tok))`` for an integer.
    """
    cuts = [lo]  # each chunk after the first starts at a row's bracket
    while (cut := data.find(b"[", cuts[-1] + _CHUNK, hi)) > 0:
        cuts.append(cut)
    cuts.append(hi)
    flat, texts = [], []
    rows = 0
    before = _COMMA  # the byte before the chunk, as if the outer '[' were a row's
    for a, b in zip(cuts, cuts[1:]):
        chunk = _sparse_rows(data, a, b, before, n, a == lo, b == hi)
        if chunk is None:
            return None
        count, places, tokens, before = chunk
        flat.append(rows * n + places)
        texts += tokens
        rows += count
        if not _is_sparse(n, len(texts)):
            return None
    if rows != n or not _NUMBERS.fullmatch(b" ".join(texts)):
        return None
    # float(int(t)) of an integer token t is float(t), both rounded correctly,
    # unless t is "-0" (0.0, not -0.0) or beyond float range (inf here, an
    # OverflowError in np.asarray: declined either way)
    values = np.array(list(map(float, texts)))
    if not np.all(np.isfinite(values)):
        return None
    for i in np.flatnonzero(np.signbit(values) & (values == 0)).tolist():
        if texts[i] == b"-0":
            values[i] = 0.0
    P = np.zeros((n, n))
    np.put(P, np.concatenate(flat), values)
    P.setflags(write=False)
    return P


def _sparse_rows(data: bytes, a: int, b: int, before: int, n: int, first: bool, last: bool):
    """The rows of n tokens in ``data[a:b]``: their number, the places and texts of
    their nonzero tokens and the chunk's last byte; or None.

    The bytes are classified with the whitespace left out: ',', '[', ']'
    and token bytes. Each comma and bracket is judged by its neighbours
    (``before`` is the byte before the chunk; the outer brackets open the
    ``first`` chunk and close the ``last``), and the span must read
    ``[[t,...,t],...,[t,...,t]]``, with no whitespace inside a token. As
    every token but the nonzero ones is the one byte ``0``, a row's length
    and a nonzero token's column follow from their positions and the
    lengths of the nonzero tokens before them.
    """
    raw = np.frombuffer(data, np.uint8, b - a, a)
    blank = raw <= 32
    g = raw
    if blank.any():
        if not np.isin(raw[blank], (9, 10, 13, 32)).all():
            return None
        g = raw[~blank]
    ext = np.empty(g.size + 2, np.uint8)  # the chunk between its neighbours
    ext[0], ext[1:-1], ext[-1] = before, g, _OPEN
    comma, opn, close = ext == _COMMA, ext == _OPEN, ext == _CLOSE
    tok = comma | opn
    tok |= close
    np.logical_not(tok, out=tok)
    # a comma between two tokens or two rows; a row's '[' after a comma (or
    # the outer '[') and before a token; its ']' after a token and before a
    # comma (or the outer ']'). Then no bracket but the outer ones follows a
    # bracket of its kind, so rows alternate with the separators between
    # them, and a row without its '[' or ']' leaves these two counts apart.
    odd = tok[:-2] & tok[2:]
    np.logical_not(odd, out=odd)
    odd &= comma[1:-1]
    odd = np.flatnonzero(odd)
    opens = np.flatnonzero(opn[1:-1])[1 if first else 0:]
    closes = np.flatnonzero(close[1:-1])
    closes = closes[:-1] if last else closes
    if not (
        np.all(close[odd] & opn[odd + 2])
        and np.all((comma[opens] | opn[opens]) & tok[opens + 2])
        and np.all(tok[closes] & (comma[closes + 2] | close[closes + 2]))
        and opens.size == closes.size
    ):
        return None
    if g is not raw:  # whitespace between two tokens would have joined them
        apart = blank | (raw == _COMMA)
        apart |= raw == _OPEN
        apart |= raw == _CLOSE
        joined = np.count_nonzero(apart[:-1] & ~apart[1:]) - np.count_nonzero(tok[:-2] & ~tok[1:-1])
        if joined:
            return None
    # the bytes of the tokens other than a lone '0'
    mark = g != _ZERO
    mark |= tok[:-2]
    mark |= tok[2:]
    mark &= tok[1:-1]
    at = np.flatnonzero(mark)
    breaks = np.flatnonzero(np.diff(at) != 1)
    starts = at[np.concatenate(([0], breaks + 1))] if at.size else at
    ends = at[np.concatenate((breaks, [-1]))] + 1 if at.size else at
    extra = np.zeros(starts.size + 1, np.intp)  # bytes of nonzero tokens beyond one each
    np.cumsum(ends - starts - 1, out=extra[1:])
    in_open = np.searchsorted(starts, opens)
    lengths = closes - opens - 1 - (extra[np.searchsorted(starts, closes)] - extra[in_open])
    if np.any(lengths != 2 * n - 1):
        return None
    row = np.searchsorted(opens, starts) - 1
    col = (starts - opens[row] - 1 - (extra[:-1] - extra[in_open[row]])) // 2
    text = g.tobytes()
    tokens = [text[i:j] for i, j in zip(starts.tolist(), ends.tolist())]
    return opens.size, row * n + col, tokens, int(g[-1])


def network_from_dict(obj: dict) -> tuple[Network, ExogenousFlow | None]:
    for key in ("n", "P", "w"):
        if key not in obj:
            raise FileFormatError(f"network object is missing key {key!r}")
    try:
        net = Network(obj["P"], obj["w"])
    except InputError as exc:
        raise FileFormatError(str(exc)) from None
    declared = obj["n"]  # an int, or a float with an integral value such as 3.0
    if isinstance(declared, float) and declared.is_integer():
        declared = int(declared)
    if isinstance(declared, bool) or not isinstance(declared, int):
        raise FileFormatError(f"key 'n' must be an integer, got {obj['n']!r}")
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
    try:
        W = _as_matrix(obj["W"], "W")
        _require_finite(W, "W")
        a, b, u = (_as_vector(obj[key], key, W.shape[0]) for key in ("a", "b", "u"))
    except InputError as exc:
        raise FileFormatError(str(exc)) from None
    # InputError from the constructor propagates: a well-formed file whose
    # entries violate the invariants is a validation failure, not a parse one
    return LiabilityData(W, a, b, u)


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
