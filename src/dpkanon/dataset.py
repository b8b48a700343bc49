"""Tabular microdata loading, standardization, and the empirical joint
distribution of the quasi-identifiers with its conditional CDF tables.

Values are grouped by exact equality after rounding to 12 significant
digits, so ordinal/binary codes group exactly and continuous inputs are
robust to floating-point noise. A joint groups the records' index rows once
(keys, counts, inverse); its PMF, its conditional CDF tables (one flat
prefix tree over the keys, built on first use) and its callers read that.
"""
from __future__ import annotations

import csv
import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, EmptyInputError, ParseError, SchemaError

SIG_DIGITS = 12
# the lone surrogates that errors="surrogateescape" reads undecodable bytes as
_SURROGATE = re.compile("[\udc80-\udcff]")


def round_sig(x):
    """Round to SIG_DIGITS significant digits (elementwise, 0 stays 0)."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    nz = (x != 0) & np.isfinite(x)
    p = SIG_DIGITS - 1 - np.floor(np.log10(np.abs(x[nz])))
    # 10**p overflows for |x| below about 1e-297: scale by 10**(p - 308)
    # first, which is 1 (and changes no bit) for every larger |x|
    f, g = 10.0 ** np.minimum(p, 308), 10.0 ** np.maximum(p - 308, 0)
    out[nz] = np.round(x[nz] * g * f) / f / g
    if out.ndim == 0:
        return float(out)
    return out


def check_seed(seed) -> None:
    """Reject any seed but a nonnegative integer, which numpy's generators need."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass(frozen=True)
class TableSchema:
    """Column-role declaration for load_table. Each column takes at most
    one role, so no quasi-identifier can leave the release as the response
    or the id."""

    qi: tuple
    response: str
    id_col: str | None = None

    def __post_init__(self):
        if not self.qi:
            raise SchemaError("no quasi-identifier column is declared")
        roles = [(name, "a quasi-identifier") for name in self.qi]
        roles.append((self.response, "the response"))
        if self.id_col is not None:
            roles.append((self.id_col, "the id"))
        seen = {}
        for name, role in roles:
            if name in seen:
                raise SchemaError(
                    f"column {name!r} is listed twice as {role}" if seen[name] == role
                    else f"column {name!r} is declared as {seen[name]} and as {role}")
            seen[name] = role


@dataclass(frozen=True)
class DataTable:
    """Quasi-identifier matrix, response vector, and column metadata."""

    qi: np.ndarray          # (n, d) float
    response: np.ndarray    # (n,) float
    columns: tuple          # d column names
    record_ids: tuple       # n unique identifiers

    def __post_init__(self):
        qi = np.asarray(self.qi, dtype=float)
        y = np.asarray(self.response, dtype=float)
        object.__setattr__(self, "qi", qi)
        object.__setattr__(self, "response", y)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "record_ids", tuple(self.record_ids))
        if qi.ndim != 2 or qi.shape[0] < 1 or qi.shape[1] < 1:
            raise EmptyInputError("qi matrix must be non-empty and 2-d")
        if qi.shape[0] != y.shape[0] or qi.shape[0] != len(self.record_ids):
            raise SchemaError("row count mismatch between qi, response, record_ids")
        if qi.shape[1] != len(self.columns):
            raise SchemaError("column metadata does not match qi width")
        if len(set(self.record_ids)) != len(self.record_ids):
            raise SchemaError("record_ids must be unique")

    @property
    def n(self) -> int:
        return self.qi.shape[0]

    @property
    def d(self) -> int:
        return self.qi.shape[1]


@dataclass(frozen=True)
class Standardizer:
    """Per-column location/scale with flags for constant columns. A tiny
    column, or a tiny response, is scaled by 2**-e before centring (e = 0
    elsewhere, where ldexp changes no bit)."""

    means: np.ndarray
    scales: np.ndarray
    exponents: np.ndarray
    constant_flags: np.ndarray
    response_mean: float
    response_scale: float
    response_constant: bool
    response_exponent: int

    def apply_qi(self, qi: np.ndarray) -> np.ndarray:
        qi = np.ldexp(np.asarray(qi, dtype=float), -self.exponents)
        return (qi - self.means) / self.scales

    def revert_qi(self, qi_std: np.ndarray) -> np.ndarray:
        return np.ldexp(np.asarray(qi_std, dtype=float) * self.scales + self.means,
                        self.exponents)

    def apply_response(self, y: np.ndarray) -> np.ndarray:
        y = np.ldexp(np.asarray(y, dtype=float), -self.response_exponent)
        return (y - self.response_mean) / self.response_scale


def load_table(path, schema: TableSchema) -> DataTable:
    """Load a CSV file per the declared schema.

    First row is the header; rows are kept in file order and rows of blank
    fields are skipped. record_ids are row ordinals unless schema.id_col is
    declared. The rows are read once and each declared column is parsed in
    one pass; a malformed file raises for its first fault in row-major
    order: on one row, a missing field before a number that does not parse
    (in declared column order) before a repeated id. A row that cannot be
    read (bytes that are not UTF-8, or a csv error such as a field over
    csv's size limit) ends the rows: its fault comes after those of the
    rows above it. A value that is not finite is reported only when no row
    has such a fault.
    """
    try:
        return _read_table(path, schema, "strict")
    except UnicodeDecodeError:
        # The decoder fails on a whole chunk of the file, not on one row.
        # Read again with each byte that is not UTF-8 as a lone surrogate,
        # which finds the row it is on.
        return _read_table(path, schema, "surrogateescape")


def _read_table(path, schema: TableSchema, errors: str) -> DataTable:
    """load_table, with the file decoded under the given error handler."""
    escaped = errors == "surrogateescape"
    with open(path, newline="", encoding="utf-8", errors=errors) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty")
        except csv.Error as exc:
            raise ParseError(f"{path}: row 1: {exc}")
        if escaped and (fault := _undecoded(header)) is not None:
            raise ParseError(f"{path}: row 1: {fault}")
        header = [h.strip() for h in header]
        declared = list(schema.qi) + [schema.response]
        if schema.id_col is not None:
            declared.append(schema.id_col)
        col_idx = {}
        for name in declared:
            where = [j for j, h in enumerate(header) if h == name]
            if not where:
                raise SchemaError(f"{path}: declared column {name!r} not in header")
            if len(where) > 1:
                raise SchemaError(
                    f"{path}: declared column {name!r} appears twice in the "
                    f"header, at columns {where[0] + 1} and {where[1] + 1}")
            col_idx[name] = where[0]
        # a row that cannot be read raises after the faults of the rows
        # before it, which extend() keeps
        rows, unread = [], None
        try:
            rows.extend(reader)
        except csv.Error as exc:
            unread = ParseError(f"{path}: row {len(rows) + 2}: {exc}")
        except OSError as exc:
            unread = exc
    if escaped:
        for r, row in enumerate(rows):
            if (fault := _undecoded(row)) is not None:  # rows from r on are unread
                unread = ParseError(f"{path}: row {r + 2}: {fault}")
                del rows[r:]
                break

    # rows of blank fields are skipped; a first cell that is not blank
    # settles most rows without joining them
    rownums = [num for num, row in enumerate(rows, start=2)
               if row and (row[0].strip() or "".join(row).strip())]
    if len(rownums) < len(rows):
        rows = [rows[num - 2] for num in rownums]
    width = max(col_idx.values()) + 1
    short = len(rows)
    if rows and min(map(len, rows)) < width:
        short = next(r for r, row in enumerate(rows) if len(row) < width)
    good = rows[:short]  # every fault on a row above a short one comes first

    numeric = list(schema.qi) + [schema.response]
    cols, faults = [], []  # faults: (row, rank in the row, message)
    for rank, name in enumerate(numeric):
        cells = list(map(operator.itemgetter(col_idx[name]), good))
        col, bad = _parse_floats(cells)
        cols.append(col)
        if bad is not None:
            faults.append((bad, rank, f"{path}: row {rownums[bad]}, column {name!r}: "
                                      f"cannot parse {cells[bad].strip()!r} as a number"))
    if schema.id_col is None:
        ids = [num - 2 for num in rownums[:short]]
    else:
        ids = [cell.strip() for cell in map(operator.itemgetter(col_idx[schema.id_col]), good)]
        if len(set(ids)) < len(ids):
            first = {}  # declared id -> the row it was first read on
            r = next(r for r, rid in enumerate(ids) if first.setdefault(rid, r) != r)
            faults.append((r, len(numeric), (
                f"{path}: column {schema.id_col!r}: id {ids[r]!r} repeats "
                f"on rows {rownums[first[ids[r]]]} and {rownums[r]}")))
    if faults:
        raise ParseError(min(faults)[2])
    if short < len(rows):
        name = next(n for n in declared if col_idx[n] >= len(rows[short]))
        raise ParseError(
            f"{path}: row {rownums[short]}, column {name!r}: missing; the row "
            f"has {len(rows[short])} of {len(header)} fields")
    if unread is not None:
        raise unread
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")

    values = np.column_stack(cols)
    bad = ~np.isfinite(values)
    if bad.any():
        r, j = np.argwhere(bad)[0]
        raise ParseError(
            f"{path}: row {rownums[r]}, column {numeric[j]!r}: "
            f"value {float(values[r, j])!r} is not finite")

    return DataTable(np.column_stack(cols[:-1]), cols[-1], schema.qi, tuple(ids))


def _undecoded(cells: list) -> str | None:
    """Names the first byte of the cells that was not UTF-8, or None."""
    found = _SURROGATE.search("".join(cells))
    if found is None:
        return None
    return f"byte {ord(found.group()) - 0xDC00:#04x} is not UTF-8 text"


def _parse_floats(cells: list) -> tuple:
    """The cells as a float array and None, or None and the index of the
    first cell that does not parse. One pass of float() parses a clean
    column; otherwise each cell is parsed as float(cell.strip()), which
    also drops the whitespace that float() keeps."""
    try:
        return np.fromiter(map(float, cells), float, len(cells)), None
    except ValueError:
        pass
    values = []
    for i, cell in enumerate(cells):
        try:
            values.append(float(cell.strip()))
        except ValueError:
            return None, i
    return np.array(values), None


def _mean_sd(a: np.ndarray) -> tuple:
    """Means and sds (denominator n - 1) along axis 0 of a / 2**e, and the
    exponents e (0 on most columns). Where the squares overflow, or may
    underflow (an sd below 2**-500), the moments are taken on the values
    divided by a power of two near their largest magnitude: exact, but for
    values so much smaller than the largest that the division makes them
    subnormal. A wide column's moments are then scaled back (e = 0), so an
    overflowing standardized value still shows; a tiny column keeps e < 0,
    so its mean and sd stay normal floats."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd = a.mean(axis=0), a.std(axis=0, ddof=1)
        rescale = ~(np.isfinite(mean) & np.isfinite(sd) & (sd >= 2.0 ** -500))
        e = np.where(rescale, np.frexp(np.abs(a).max(axis=0))[1], 0)
        kept = np.minimum(e, 0)
        if rescale.any():
            scaled = np.ldexp(a, -e)
            mean = np.where(rescale, np.ldexp(scaled.mean(axis=0), e - kept), mean)
            sd = np.where(rescale, np.ldexp(scaled.std(axis=0, ddof=1), e - kept), sd)
    return mean, sd, kept


def standardize(table: DataTable) -> tuple[DataTable, Standardizer]:
    """Center and scale every column to mean 0, variance 1 (denominator n-1).

    A constant column (or a constant response), one whose values all equal
    its first, is flagged, centred at that value and given scale 1, so it
    standardizes to exactly 0. Its computed mean may differ from the value
    in the last bits, and a raw value left in place would add its rounding
    to every expanded-form distance. A column whose squared deviations
    overflow or underflow gets its mean and sd from its values scaled by a
    power of two, and one whose sd still computes to 0 gets scale 1. A
    column whose sd or standardized values are not finite floats raises
    DomainError naming it.
    """
    qi, y = table.qi, table.response
    const = np.all(qi == qi[0], axis=0)
    means, scales, exponents = _mean_sd(qi) if table.n > 1 else (qi[0], np.ones(table.d), 0)
    means = np.where(const, qi[0], means)
    scales = np.where(const | (scales == 0.0), 1.0, scales)
    exponents = np.where(const, 0, exponents)

    y_const = bool(np.all(y == y[0]))
    if y_const:
        y_mean, y_scale, y_exp = float(y[0]), 1.0, 0
    else:
        m, s, e = _mean_sd(y)
        y_mean, y_scale, y_exp = float(m), float(s) or 1.0, int(e)

    std = Standardizer(means, scales, exponents, const, y_mean, y_scale, y_const, y_exp)
    with np.errstate(over="ignore"):
        qi_std, y_std = std.apply_qi(qi), std.apply_response(y)
    if not (np.isfinite(scales).all() and np.isfinite(qi_std).all()):
        bad = ~(np.isfinite(scales) & np.isfinite(qi_std).all(axis=0))
        name = table.columns[int(np.argmax(bad))]
        raise DomainError(f"column {name!r}: values too far apart to standardize")
    if not (math.isfinite(y_scale) and np.isfinite(y_std).all()):
        raise DomainError("response: values too far apart to standardize")
    return DataTable(qi_std, y_std, table.columns, table.record_ids), std


class EmpiricalJoint:
    """The records grouped once by their index rows.

    values[j] holds the sorted distinct values of dimension j, and a
    record's index row the 0-based position of each of its values in them.
    keys holds the (G, d) distinct index rows in lexicographic order, counts
    the records on each and inverse each record's key, so keys[inverse] is
    every record's index row. One prefix tree over the keys, flat_trie,
    holds the conditional CDF tables that the batched inverse
    (rosenblatt.inverse_empirical_indices) walks.
    """

    def __init__(self, values, keys, counts, inverse):
        self.values = values
        self.keys = keys
        self.counts = counts
        self.inverse = inverse
        self.total = len(inverse)
        self.d = len(values)

    @cached_property
    def flat_trie(self) -> tuple:
        """The prefix tree as flat per-dimension arrays, for batched walks.

        Level j is a tuple (idx, cumfrac, starts, lengths): the sorted next
        indices and their cumulative fractions for every length-j prefix,
        concatenated in lexicographic prefix order, and each prefix's start
        and length in them. Prefixes of length j + 1 are numbered by their
        entry in level j, so the entry a walk lands on is its node at the
        next level; the root is node 0 of level 0. Built on first use, so
        joints that are never inverted do not pay for it.
        """
        keys = self.keys
        node = np.zeros(len(keys), dtype=np.intp)  # each key's length-j prefix
        n_nodes = 1
        levels = []
        for j in range(self.d):
            # a key opens a new entry where its length-(j+1) prefix changes
            new = np.ones(len(keys), dtype=bool)
            new[1:] = (node[1:] != node[:-1]) | (keys[1:, j] != keys[:-1, j])
            first = np.flatnonzero(new)
            cumfrac, starts, lengths = segment_cumfrac(
                np.add.reduceat(self.counts, first), node[first], n_nodes)
            levels.append((keys[first, j], cumfrac, starts, lengths))
            node = np.cumsum(new) - 1
            n_nodes = len(first)
        return tuple(levels)

    def pmf(self) -> dict:
        """Joint PMF as {value tuple: probability}, in key order."""
        support = np.column_stack([v[self.keys[:, j]] for j, v in enumerate(self.values)])
        return dict(zip(map(tuple, support.tolist()), (self.counts / self.total).tolist()))


def build_empirical_joint(qi: np.ndarray) -> EmpiricalJoint:
    """Group the records by their index rows (group_rows)."""
    qi = np.asarray(qi, dtype=float)
    if qi.ndim == 1:
        qi = qi[:, None]
    if qi.size == 0:
        raise EmptyInputError("empty quasi-identifier matrix")
    rows = round_sig(qi)
    values = [np.unique(col) for col in rows.T]
    idx = np.column_stack([np.searchsorted(v, col) for v, col in zip(values, rows.T)])
    keys, inverse = group_rows(idx)
    return EmpiricalJoint(values, keys, np.bincount(inverse, minlength=len(keys)), inverse)


def group_rows(rows: np.ndarray) -> tuple:
    """The distinct rows of a 2-D array in lexicographic order, and each
    row's index in them: one lexsort, and a new group wherever a sorted row
    differs from the one before it. Each group is represented by its first
    row in input order."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def segments(labels, count: int) -> tuple:
    """The records grouped by a label in 0..count-1, as (order, starts,
    sizes): group g's records are order[starts[g]:starts[g] + sizes[g]], in
    ascending index order. One stable argsort and a searchsorted of the
    group bounds; records whose label is outside 0..count-1 are left out."""
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(count + 1))
    return order[bounds[0]:bounds[-1]], bounds[:-1] - bounds[0], np.diff(bounds)


# Comparing u against cumulative fractions tolerates 1-ulp excess from the
# forward transform's float addition; real probability gaps are >= 1/n.
_U_TOL = 1e-12


def segment_cumfrac(counts, segment, n_segments: int) -> tuple:
    """Cumulative fractions of integer counts within each segment, for rows
    sorted by segment id, plus each segment's start and length. The running
    sums are exact integers, so each fraction equals
    np.cumsum(c) / c.sum() over its own segment and every segment ends at
    exactly 1."""
    counts = np.asarray(counts, dtype=float)
    lengths = np.bincount(segment, minlength=n_segments)
    total = np.bincount(segment, weights=counts, minlength=n_segments)
    before = np.cumsum(total) - total
    cumfrac = (np.cumsum(counts) - before[segment]) / total[segment]
    return cumfrac, np.cumsum(lengths) - lengths, lengths


def searchsorted_segments(a, starts, lengths, v) -> np.ndarray:
    """Row-wise np.searchsorted(side="left"): the insertion point of v[r] in
    the sorted segment a[starts[r]:starts[r] + lengths[r]], relative to the
    segment start. One vectorized binary search over all rows. v may hold
    -inf, which gives 0, and +inf, which gives the segment's length; it
    must not hold NaN, whose comparisons are all False.
    """
    lo = np.zeros(len(v), dtype=np.intp)
    hi = np.array(lengths, dtype=np.intp)
    last = len(a) - 1
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) >> 1
        x = a[np.minimum(starts + mid, last)]
        right = x < v
        lo = np.where(active & right, mid + 1, lo)
        hi = np.where(active & ~right, mid, hi)
