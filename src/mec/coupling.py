"""Pairwise couplings within one bit of the minimum-entropy optimum.

Finding the coupling of two distributions with the least entropy is NP-hard,
but the greatest lower bound z = glb(p, q) both lower-bounds the optimum and
admits a greedy rearrangement into a valid coupling that splits each z
component at most once. The resulting entropy is at most H(z) + 1, hence at
most OPT + 1, and the support has at most 2n cells.

Two engines produce the same coupling, bit for bit. The dense engine walks
an explicit n x n matrix from the last index to the first; it is quadratic,
capped at ``DENSE_CAP`` components per side, and serves as the reference the
sparse engine is audited against. The sparse engine keeps only the moved
masses, in two min-priority queues keyed by mass, and runs in O(n log n)
overall. Both resolve every row/column overflow through the one greedy split,
:meth:`MassPool.split`; at each index at most one side overflows, and the
sparse walk runs one loop body over the column side, then the row side. Each
engine checks each marginal once, as raw masses are checked (a hand-built
``Distribution`` too), and never checks their glb. Callers that hold checked
marginals call the sparse engine's walk, ``_walk``, which checks no marginal,
pads them itself, runs the debug checks when asked, and also returns the glb
it walked, so that glb is computed once.

Both engines record the cells as three flat columns (value, row, column) in
sorted working positions. The walk returns these raw cells, unordered and
unchecked, with the padded marginals and their lengths. One output step,
``_finish``, turns them into a :class:`SparseCoupling` in the caller's
original index order for each marginal: it maps the index columns through the
sort permutations and hands them to ``_CellStore._build``, which puts the
engine cells of both sparse types in coordinate order, by one stable sort
per axis (``_cell_order``), and checks them through ``_CellStore._fill``.
Both consume the lists they read, emptying each once read, so that no
column is held in both working and caller coordinates, or in both orders.
The sparse engine, the dense engine and the CLI's ``couple`` and
``oracle-check`` run it. A caller that needs no cell order, as the k-way
merges and ``metric_estimate`` do, reads the raw cells through
``_raw_cells`` instead, which runs the same checks' C-level passes and
leaves any failure to ``_finish``, so that it raises the same
``ValueError``.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice, repeat

from .distributions import (
    INTERNAL_TOL,
    NORMALIZATION_TOL,
    Distribution,
    _caller_order,
    _checked,
    _sorted_distribution,
)
from .errors import InfeasibleSplitError, InternalError, TooLargeError
from .majorization import _glb

DENSE_CAP = 2048


@dataclass(frozen=True, slots=True)
class CouplingEntry:
    """One positive cell of a sparse coupling, in caller coordinates."""

    value: float
    row: int
    col: int


# indices print as their repr, so a str "0" does not read as the int 0
_CELL_ERRORS = {
    "value": "entry ({cell[0]!r}, {cell[1]!r}) must be positive, got {value!r}",
    "finite": "entry ({cell[0]!r}, {cell[1]!r}) must be finite, got {value!r}",
    "range": "entry ({cell[0]!r}, {cell[1]!r}) outside {dims[0]} x {dims[1]}",
    "duplicate": "duplicate entry at ({cell[0]!r}, {cell[1]!r})",
}


class _CellStore:
    """What the two sparse types share: one checked build, ``_fill``;
    immutable, equal and hashed by their ``_KEY`` fields, printed and pickled
    as the constructor call with their ``_ARGS`` fields and ``entries``."""

    __slots__ = ()
    _ARGS: tuple[str, ...] = ()
    _KEY: tuple[str, ...] = ()
    # the ValueError message for each kind of bad cell (see _fill)
    _ERRORS: dict[str, str] = {}

    @classmethod
    def _build(cls, dims, columns, values):
        # a new store of the engines' cells, put in coordinate order; a list
        # handed in is emptied once read, values first
        values, *columns = _gather((values, *columns), _cell_order(columns, len(values)))
        store = object.__new__(cls)
        store._fill(dims, tuple(columns), values)
        return store

    def _fill(self, dims, columns, values, cells=None) -> None:
        # checks the cells and sets the fields of a new store: cell k has
        # mass values[k] at columns[a][k] on axis a, which has dims[a] lines.
        # With no columns, the cells' indices as given are walked
        if columns is None:
            bad = _bad_cell_walk(dims, cells, values)
        else:
            bad = _first_bad_cell(dims, columns, values)
        if bad is not None:
            kind, k, axis = bad
            cell = cells[k] if columns is None else tuple(column[k] for column in columns)
            raise ValueError(self._ERRORS[kind].format(
                cell=cell, value=values[k], axis=axis, dims=dims, axes=len(dims)))
        self._set(dims, tuple(zip(*cells)) if columns is None else columns, values)

    def _set(self, dims, columns, values) -> None:
        # the fields of a checked store, in slot order
        for name, value in zip(self.__slots__, (dims, columns, values)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._KEY))

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = "".join(f"{name}={getattr(self, name)!r}, " for name in self._ARGS)
        return f"{type(self).__name__}({args}entries={self.entries!r})"

    def __reduce__(self):
        return type(self), (*map(self.__getattribute__, self._ARGS), self.entries)

    def values(self) -> tuple[float, ...]:
        return self._values


class SparseCoupling(_CellStore):
    """A joint distribution over rows x cols, positive cells only.

    Stored as three parallel columns: cell k has mass ``values()[k]`` at
    (``rows[k]``, ``cols[k]``), in caller coordinates. Engine output is
    sorted by (row, col); the public constructor keeps the order it is
    given. The support never exceeds 2 * max(n_rows, n_cols): each glb
    component is split at most once. Instances are immutable, compare and
    hash by their columns, and print as the constructor call that builds them.
    """

    # _checked: the field objects that _fill checked cell by cell
    __slots__ = ("n_rows", "n_cols", "rows", "cols", "_values", "_checked")
    _ARGS = ("n_rows", "n_cols")
    _KEY = ("n_rows", "n_cols", "rows", "cols", "_values")
    _ERRORS = _CELL_ERRORS

    def __init__(self, n_rows: int, n_cols: int, entries: Iterable[CouplingEntry]) -> None:
        entries = tuple(entries)
        rows, cols, values = (
            tuple(map(operator.attrgetter(name), entries)) for name in ("row", "col", "value")
        )
        self._fill((n_rows, n_cols), (rows, cols), values)

    def _set(self, dims, columns, values) -> None:
        # the support bound, then the fields, and in _checked their objects
        if len(values) > 2 * max(dims):
            raise ValueError(
                f"{len(values)} entries exceed the 2*max(n_rows, n_cols) support bound")
        fields = (*dims, *columns, values)
        for name, value in zip(self.__slots__, (*fields, fields)):
            object.__setattr__(self, name, value)

    @property
    def entries(self) -> tuple[CouplingEntry, ...]:
        """The cells as :class:`CouplingEntry` records, built on each access."""
        return tuple(map(CouplingEntry, self._values, self.rows, self.cols))


def _exactly(kind: type, items) -> bool:
    # every item is of type ``kind`` itself, in one C-level pass
    return set(map(type, items)) <= {kind}


def _cells(index, count: int):
    # the cells' index tuples, in order; with no axes, ``count`` empty ones
    return zip(*index) if index else repeat((), count)


def _cell_order(index, count: int) -> list[int]:
    # the positions of ``count`` cells in the order of their index tuples,
    # repeats in the order given, by one stable sort of small ints per axis,
    # last axis first. One sort of mixed-radix codes (_codes) is no faster
    # beyond noise at n = 1e5 on a 2-vCPU Xeon (Python 3.11), and its
    # multi-digit ints lift the output step's traced peak by 8 MiB, 14 to 22
    order = list(range(count))
    for ix in reversed(index):
        order.sort(key=ix.__getitem__)
    return order


def _gather(columns, order) -> tuple[tuple, ...]:
    # each column read at the positions ``order``; a list is emptied once read
    gathered = []
    for column in columns:
        gathered.append(tuple(map(column.__getitem__, order)))
        if type(column) is list:
            column.clear()
    return tuple(gathered)


def _first_bad_cell(dims, index, values):
    """The first cell, in order, that is non-positive, not finite, out of
    range or a repeat, as (kind, k, axis): kind "value", "finite", "range" or
    "duplicate", k its position, axis the first axis it is out of range on
    (else None); None if there is none. Cell k has mass ``values[k]`` at
    ``index[a][k]`` on axis a, which has ``dims[a]`` lines.

    When every index is an exact int, the C-level passes of
    :func:`_cells_pass` clear the usual case. Anything else is walked cell by
    cell; the walk names the first bad cell, and an index that is not an
    int, NaN included, is out of range.
    """
    if all(map(_exactly, repeat(int), index)) and _cells_pass(dims, index, values):
        return None
    return _bad_cell_walk(dims, _cells(index, len(values)), values)


def _cells_pass(dims, index, values) -> bool:
    # True if one C-level pass per check clears the cells of int columns, in
    # any order: finite positive values, indices in range, and no repeated
    # cell, which cells in strictly increasing order, as the engines emit
    # them, clear by one compare each, and cells in any other order by one
    # set of their codes; False leaves the verdict to the walk. Ints are
    # never NaN, so min and max bound every index
    count = len(values)
    return not count or (
        min(values) > 0.0 and all(map(math.isfinite, values))
        and all(0 <= min(ix, default=0) and max(ix, default=0) < n for ix, n in zip(index, dims))
        and (all(map(operator.lt, _cells(index, count), islice(_cells(index, count), 1, None)))
             or len(set(_codes(dims, index, count))) == count))


def _codes(dims, index, count: int):
    # one mixed-radix int per cell, axis a's radix dims[a]. With every index
    # in range, codes compare as the cells' index tuples do, so two codes are
    # equal only when the two cells are
    if not index:
        return repeat(0, count)
    codes = index[0]
    for ix, n in zip(index[1:], dims[1:]):
        codes = map(operator.add, map(operator.mul, codes, repeat(n)), ix)
    return codes


def _bad_cell_walk(dims, cells, values):
    # the walk of _first_bad_cell over the cells' index sequences, in order;
    # a cell with the wrong number of indices is kind "arity", and an index
    # with no __index__, such as a float, is on no line: kind "range"
    seen = set()
    for k, (value, cell) in enumerate(zip(values, cells)):
        if value <= 0.0:
            return "value", k, None
        if not math.isfinite(value):
            return "finite", k, None
        if len(cell) != len(dims):
            return "arity", k, None
        for axis, (i, n) in enumerate(zip(cell, dims)):
            if not (hasattr(type(i), "__index__") and 0 <= i < n):
                return "range", k, axis
        if cell in seen:
            return "duplicate", k, None
        seen.add(cell)
    return None


class MassPool:
    """Min-priority queue of (mass, origin) records with a running total.

    Ties on mass break toward the smaller origin index, which makes
    extraction order (and therefore every coupling this package emits)
    deterministic. The total is maintained with compensated accumulation so
    overflow tests stay reliable over long push/extract sequences.
    """

    __slots__ = ("_heap", "_sum", "_err")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int]] = []
        self._sum = 0.0
        self._err = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def total(self) -> float:
        return self._sum + self._err

    # push and split keep the total by Neumaier's compensated summation, on
    # locals written back before they return or raise; every queued mass is
    # positive, so abs(mass) is mass itself

    def push(self, mass: float, origin: int) -> None:
        # NaN-safe: a NaN mass is not positive
        if not mass > 0.0:
            raise ValueError(f"pool masses must be positive, got {mass!r}")
        heapq.heappush(self._heap, (mass, origin))
        s = self._sum
        t = s + mass
        if abs(s) >= mass:
            self._err += (s - t) + mass
        else:
            self._err += (mass - t) + s
        self._sum = t

    def split(self, z: float, x: float) -> tuple[float, list[tuple[float, int]]]:
        """Split mass ``z`` so that the smallest queued records plus ``z_d`` hit ``x``.

        Extracts records smallest mass first while the running sum plus the
        next record stays strictly below ``x``; then ``z_d = x - sum`` tops
        the target up exactly, and the caller relocates ``z - z_d``. Returns
        ``z_d`` and the extracted records, which leave the queue.

        Raises:
            InfeasibleSplitError: an extracted record exceeds ``z``, or ``x``
                exceeds ``z`` plus the queued total (both checked with 1e-12
                slack).
        """
        heap, s, err = self._heap, self._sum, self._err
        if x > z + (s + err) + INTERNAL_TOL:
            raise InfeasibleSplitError(f"target {x!r} exceeds z plus queued total")
        taken: list[tuple[float, int]] = []
        acc = 0.0
        while heap and acc + heap[0][0] < x:
            record = heapq.heappop(heap)
            mass = record[0]
            if mass > z + INTERNAL_TOL:
                self._sum, self._err = s, err
                raise InfeasibleSplitError(
                    f"candidate {record[1]} has mass {mass!r} exceeding z={z!r}")
            t = s - mass
            if abs(s) >= mass:
                err += (s - t) - mass
            else:
                err += (-mass - t) + s
            s = t
            taken.append(record)
            acc += mass
        self._sum, self._err = s, err
        z_d = x - acc
        if z_d < 0.0:
            z_d = 0.0
        if z_d > z:
            if z_d - z > INTERNAL_TOL:
                raise InfeasibleSplitError(f"retained piece {z_d!r} exceeds z={z!r}")
            z_d = z
        return z_d, taken

    def drain(self) -> list[tuple[float, int]]:
        """Remove and return all records, smallest mass first."""
        out: list[tuple[float, int]] = []
        while self._heap:
            out.append(heapq.heappop(self._heap))
        self._sum = 0.0
        self._err = 0.0
        return out


def _pad(dp: Distribution, dq: Distribution) -> tuple[Distribution, Distribution, int, int]:
    """Rescale (:func:`_unit`) two checked marginals and pad them to a common
    length; also returns their lengths before padding."""
    dp = _unit(dp)
    dq = _unit(dq)
    n = max(dp.n, dq.n)
    return dp.padded(n), dq.padded(n), dp.n, dq.n


def _unit(d: Distribution) -> Distribution:
    # divides the masses of a checked marginal off 1 by more than
    # INTERNAL_TOL, which would overflow the walk's lines, by their total
    total = math.fsum(d.masses)
    if abs(total - 1.0) <= INTERNAL_TOL:
        return d
    return _sorted_distribution(tuple(x / total for x in d.masses), d.perm)


def _finish(
    vals: list[float],
    wr: list[int],
    wc: list[int],
    dp: Distribution,
    dq: Distribution,
    n_rows: int,
    n_cols: int,
) -> SparseCoupling:
    # cell k has value vals[k] at (wr[k], wc[k]) in sorted positions; map
    # the index columns through the perms, emptying each once read, and let
    # _build put the cells in (row, col) order, padded indices included, so
    # an out-of-range cell is reported where that order puts it
    rows = list(map(dp.perm.__getitem__, wr))
    wr.clear()
    cols = list(map(dq.perm.__getitem__, wc))
    wc.clear()
    return SparseCoupling._build((n_rows, n_cols), (rows, cols), vals)


def _both_overflow(i: int) -> InternalError:
    return InternalError(f"both marginals overflow at index {i}; state is corrupted")


def min_entropy_coupling_dense(
    p: Distribution | Sequence[float],
    q: Distribution | Sequence[float],
    debug: bool = False,
) -> SparseCoupling:
    """Quadratic coupling engine over an explicit matrix.

    Starts from diag(glb(p, q)) and walks indices from last to first; an
    overflowing column (resp. row) is resolved by :meth:`MassPool.split` of
    the diagonal mass against the other positive cells of that column (resp.
    row), relocating the remainder and the cells left out one index down.
    Each glb component is split at most once, so the output keeps at most 2n
    positive cells and entropy at most H(glb) + 1. The output is bit-identical
    to :func:`min_entropy_coupling_sparse`, which this engine audits.

    With ``debug`` on, verifies that the output values regroup exactly into
    the recorded splits of the glb components.

    Raises:
        TooLargeError: either marginal has more than ``DENSE_CAP`` components.
    """
    dp, dq, n_rows, n_cols = _pad(_checked(p), _checked(q))
    n = dp.n
    if n > DENSE_CAP:
        raise TooLargeError(
            f"{n} components exceed the dense engine's cap of {DENSE_CAP}; use the sparse engine"
        )
    pm, qm = dp.masses, dq.masses
    z = _glb(pm, qm).masses
    grid = [[0.0] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = z[i]
    splits: dict[int, tuple[float, float]] = {}

    for i in range(n - 1, -1, -1):
        col_sum = math.fsum(grid[k][i] for k in range(n))
        row_sum = math.fsum(grid[i][k] for k in range(n))
        col_over = col_sum > qm[i] + INTERNAL_TOL
        row_over = row_sum > pm[i] + INTERNAL_TOL
        if col_over and row_over:
            raise _both_overflow(i)
        if not (col_over or row_over):
            continue
        if i == 0:
            raise InternalError("first index cannot overflow; state is corrupted")
        # cell k of the overflowing line, and the cell one index down it moves to
        if col_over:
            line = [(k, i) for k in range(n)]
            below = [(k, i - 1) for k in range(n)]
        else:
            line = [(i, k) for k in range(n)]
            below = [(i - 1, k) for k in range(n)]
        # candidates: the line's other positive cells, keyed (mass, fixed
        # coordinate) exactly as the sparse engine queues them
        pool = MassPool()
        for k, (r, c) in enumerate(line):
            if k != i and grid[r][c] > 0.0:
                pool.push(grid[r][c], k)
        z_d, _ = pool.split(z[i], qm[i] if col_over else pm[i])
        grid[i][i] = z_d
        for mass, k in pool.drain():
            r, c = line[k]
            grid[r][c] = 0.0
            r, c = below[k]
            grid[r][c] = mass
        r, c = below[i]
        grid[r][c] = z[i] - z_d
        if debug:
            splits[i] = (z_d, z[i] - z_d)

    vals: list[float] = []
    wr: list[int] = []
    wc: list[int] = []
    for r, line in enumerate(grid):
        for c, value in enumerate(line):
            if value > 0.0:
                vals.append(value)
                wr.append(r)
                wc.append(c)
    if debug:
        _verify_split_conservation(vals, wr, wc, z, splits)
    return _finish(vals, wr, wc, dp, dq, n_rows, n_cols)


def min_entropy_coupling_sparse(
    p: Distribution | Sequence[float],
    q: Distribution | Sequence[float],
    debug: bool = False,
) -> SparseCoupling:
    """O(n log n) coupling engine over two priority queues.

    Only moved masses are materialized: pieces travelling along a row wait in
    one queue, pieces travelling down a column in the other, each keyed by
    mass with its fixed coordinate attached. At index i the queue total plus
    z_i either equals the marginal (the queue drains into this index) or
    overflows it (a greedy min-first split retains exactly the missing
    amount and requeues the remainder). Same output as the dense engine, bit
    for bit.
    """
    # the walk's glb is dropped before the output step
    return _finish(*_walk(_checked(p), _checked(q), debug)[0])


# the walk's raw cells, as the arguments of _finish: values, rows and cols in
# working coordinates and walk order, the padded marginals, and their lengths
# before padding. _finish empties the three lists
_Cells = tuple[list[float], list[int], list[int], Distribution, Distribution, int, int]


def _walk(dp: Distribution, dq: Distribution,
          debug: bool = False) -> tuple[_Cells, tuple[float, ...]]:
    # the sparse engine's walk over two checked marginals, unchecked; it pads
    # them (_pad) and returns its raw cells, unordered and unchecked, and the
    # glb z it walked
    dp, dq, n_rows, n_cols = _pad(dp, dq)
    pm, qm = dp.masses, dq.masses
    z = _glb(pm, qm).masses
    # the cells in working coordinates, as three parallel columns
    vals: list[float] = []
    wr: list[int] = []
    wc: list[int] = []
    add_val, add_row, add_col = vals.append, wr.append, wc.append
    q_col = MassPool()
    q_row = MassPool()
    # one loop body serves both sides: a piece queued on a side keeps its
    # fixed index and lands on that side's line i. Each side is its queue,
    # its marginal, the appenders for the fixed index and for the line, and
    # its name; columns go first
    sides = ((q_col, qm, add_row, add_col, "column"),
             (q_row, pm, add_col, add_row, "row"))
    splits: dict[int, tuple[float, float]] = {}

    for i in range(dp.n - 1, -1, -1):
        zi = z[i]
        z_d = zi
        over = False
        for pool, line, add_fixed, add_line, name in sides:
            total = pool._sum + pool._err
            if total + zi > line[i] + INTERNAL_TOL:
                if over:
                    raise _both_overflow(i)
                over = True
                z_d, taken = pool.split(zi, line[i])
                rest = zi - z_d
                if rest > 0.0:
                    pool.push(rest, i)
                    if debug:
                        splits[i] = (z_d, rest)
            else:
                if debug and abs(total + zi - line[i]) > NORMALIZATION_TOL:
                    raise InternalError(f"{name} {i} neither overflows nor balances")
                # an empty queue only needs its total reset
                if not pool._heap:
                    pool._sum = pool._err = 0.0
                    continue
                taken = pool.drain()
            for mass, fixed in taken:
                add_val(mass)
                add_fixed(fixed)
                add_line(i)
        if z_d > 0.0:
            add_val(z_d)
            add_row(i)
            add_col(i)

    if q_col or q_row:
        raise InternalError("leftover queued mass after the final index")
    if debug:
        _verify_split_conservation(vals, wr, wc, z, splits)
    return (vals, wr, wc, dp, dq, n_rows, n_cols), z


def _raw_cells(cells: _Cells) -> tuple[list[float], list[int], list[int]]:
    """The values, rows and cols of the walk's raw ``cells``, in working
    coordinates and walk order, for a caller that needs no cell order.

    They pass the support bound and the C-level passes of the cell check,
    :func:`_cells_pass`, which clear cells in any order. The perms map
    working indices below n_rows (n_cols) onto the caller's lines and padded
    ones past them, so the passes agree with the check :func:`_finish` runs
    on caller coordinates. Any failure goes to :func:`_finish`, which empties
    the cells' lists and raises the ``ValueError`` it names for the first bad
    cell in (row, col) order.
    """
    vals, wr, wc, _, _, n_rows, n_cols = cells
    if len(vals) <= 2 * max(n_rows, n_cols) and _cells_pass((n_rows, n_cols), (wr, wc), vals):
        return vals, wr, wc
    _finish(*cells)
    raise InternalError("the walk emitted a cell outside its working grid")


def _verify_split_conservation(
    vals: list[float],
    wr: list[int],
    wc: list[int],
    z: tuple[float, ...],
    splits: dict[int, tuple[float, float]],
) -> None:
    # in working coordinates every cell descends from z_{max(row, col)}: the
    # diagonal keeps z_i and pieces only travel to lower indices; each
    # component's cells are the component whole or the two pieces of its split
    groups: dict[int, list[float]] = {}
    for value, r, c in zip(vals, wr, wc):
        groups.setdefault(max(r, c), []).append(value)
    for j, zj in enumerate(z):
        got = sorted(groups.get(j, ()))
        if j in splits:
            expect = sorted(v for v in splits[j] if v > 0.0)
        else:
            expect = [zj] if zj > 0.0 else []
        if got != expect:
            raise InternalError(f"component {j} pieces {got} do not match split {expect}")


_CELL_DIAGNOSTICS = {
    "value": "entry ({row!r}, {col!r}) has non-positive value {value!r}",
    "finite": "entry ({row!r}, {col!r}) has non-finite value {value!r}",
    "range": "entry ({row!r}, {col!r}) is out of range",
    "duplicate": "duplicate entry at ({row!r}, {col!r})",
}


def _line_sums(index, values, n: int) -> list[float]:
    """The exact sum of each of ``n`` lines: one ``fsum`` over the values of
    the cells whose index is that line."""
    lines: list[list[float]] = [[] for _ in range(n)]
    for k, value in zip(index, values):
        lines[k].append(value)
    return list(map(math.fsum, lines))


def _lines_pass(index, values, n: int, target, tol: float) -> bool:
    """True if every line's exact sum is within ``tol`` of its target.

    A plain-float screen that may only accept: False means "not shown",
    and the caller decides with ``fsum``. Requires the cells to have passed
    :func:`_first_bad_cell`, so every value is finite and positive.
    """
    try:
        totals = [0.0] * n
        for k, value in zip(index, values):
            totals[k] += value
        # With u = 2**-53, a line of c <= N = len(values) nonnegative terms
        # with exact sum S has a left-to-right sum s within (c-1)*u*S of S
        # (Rump, BIT 2012; no bound on c), and its fsum f is S correctly
        # rounded, within u*S. So |s - f| <= c*u*S <= 2*N*u*M, with
        # M = max(1, max total) >= s >= S/2 for any N that fits in memory.
        # The computed |s - t| understates the exact one by at most a factor
        # 1 - u, and tol - slack rounds up by at most a factor 1 + u: together
        # at most 3*u*tol. Hence |s - t| <= tol - slack in floats, with
        # slack = 4*u*(N*M + tol), gives |f - t| <= tol - 2*N*u*M - u*tol
        # exactly; computing |f - t| adds at most u*tol, so fsum's check
        # accepts the line too.
        slack = 2.0**-51 * (len(values) * max(1.0, max(totals, default=0.0)) + tol)
        bound = tol - slack
        # NaN-safe: a NaN or too small bound, and a NaN or inf total or target,
        # fail here and leave the verdict to fsum
        return bound > 0.0 and all(
            map(operator.le, map(abs, map(operator.sub, totals, target)), repeat(bound)))
    except TypeError:
        # an index, value, target or tol of an odd type: fsum's walk decides,
        # and raises the same error where it must
        return False


def is_valid_coupling(
    m: SparseCoupling,
    p: Distribution | Sequence[float],
    q: Distribution | Sequence[float],
    tol: float = NORMALIZATION_TOL,
) -> tuple[bool, str]:
    """Check every coupling invariant against the prescribed marginals.

    Returns (True, "ok") or (False, diagnostic); the diagnostic names the
    first violated row or column in index order. Raw marginals get the checks
    of :func:`make_distribution`, with its exceptions, p before q; their sum
    is checked at ``max(NORMALIZATION_TOL, tol)``, so a wider ``tol`` gets a
    verdict on marginals off by more than the default (a NaN ``tol`` keeps
    the default).
    """
    raw_tol = max(NORMALIZATION_TOL, tol)
    tp, tq = _caller_order(p, raw_tol), _caller_order(q, raw_tol)
    if m.n_rows != len(tp):
        return False, f"n_rows is {m.n_rows}, first marginal has {len(tp)} components"
    if m.n_cols != len(tq):
        return False, f"n_cols is {m.n_cols}, second marginal has {len(tq)} components"
    rows, cols, values = m.rows, m.cols, m.values()
    fields = (m.n_rows, m.n_cols, rows, cols, values)
    # _fill checked the cells of the fields it recorded; a field replaced
    # since (object.__setattr__ gets past the guard) is another object, and
    # sends the cells through the check again
    checked = getattr(m, "_checked", None)
    if checked is None or not all(map(operator.is_, fields, checked)):
        # fields of different lengths would be zipped short below
        if not len(rows) == len(cols) == len(values):
            return False, (f"rows, cols and values have lengths "
                           f"{len(rows)}, {len(cols)} and {len(values)}")
        bad = _first_bad_cell((m.n_rows, m.n_cols), (rows, cols), values)
        if bad is not None:
            kind, k, _ = bad
            return False, _CELL_DIAGNOSTICS[kind].format(row=rows[k], col=cols[k], value=values[k])
    for name, index, n, target in (
        ("row", rows, m.n_rows, tp),
        ("column", cols, m.n_cols, tq),
    ):
        # a cheap plain-float pass clears the usual case; only a line it
        # cannot clear sends its side to the exact fsum per line
        if _lines_pass(index, values, n, target, tol):
            continue
        totals = _line_sums(index, values, n)
        # NaN-safe: a NaN total or target is off by more than any tol
        off = map(abs, map(operator.sub, totals, target))
        if not all(map(operator.le, off, repeat(tol))):
            k = next(k for k in range(n) if not abs(totals[k] - target[k]) <= tol)
            return False, f"{name} {k} sums to {totals[k]!r}, expected {target[k]!r}"
    bound = 2 * max(m.n_rows, m.n_cols)
    if len(values) > bound:
        return False, f"{len(values)} entries exceed the support bound {bound}"
    return True, "ok"
