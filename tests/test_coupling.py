"""The greedy mass split, the two coupling engines, and the validity checker."""

from __future__ import annotations

import copy
import decimal
import functools
import gc
import hashlib
import heapq
import math
import operator
import pickle
import random
import re
import tracemalloc
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mec
from mec import coupling
from mec.coupling import (
    _CELL_DIAGNOSTICS,
    DENSE_CAP,
    MassPool,
    _finish,
    _first_bad_cell,
    _pad,
    _raw_cells,
    _walk,
)
from mec.distributions import _checked
from conftest import (
    H_WORKED_GLB,
    WORKED_P,
    WORKED_Q,
    copied_cells,
    grid64_masses,
    random_masses,
    zero_padded_masses,
)

ENGINES = [mec.min_entropy_coupling_dense, mec.min_entropy_coupling_sparse]
ENGINE_IDS = ["dense", "sparse"]

# marginals that force a split whose candidate pool contains the overflowing
# component's own row/column neighbours; regression instance for the engines
TRICKY_P = (0.5, 0.2, 0.18, 0.12)
TRICKY_Q = (0.55, 0.35, 0.08, 0.02)


def from_cells(n_rows: int, n_cols: int, cells) -> mec.SparseCoupling:
    """A coupling of (row, col, value) cells, built as the engines build
    theirs: no ``CouplingEntry``, and the public constructor's checks and
    messages on the columns."""
    rows, cols, values = (tuple(cell[k] for cell in cells) for k in range(3))
    return mec.SparseCoupling._build((n_rows, n_cols), (rows, cols), values)


def entries_by_cell(m: mec.SparseCoupling) -> dict[tuple[int, int], float]:
    return {(e.row, e.col): e.value for e in m.entries}


def pool_of(*masses: float) -> MassPool:
    """A pool holding ``masses`` with origins 0, 1, ... in the given order."""
    pool = MassPool()
    for k, m in enumerate(masses):
        pool.push(m, k)
    return pool


class TestSplitMass:
    def test_empty_pool_splits_z(self):
        z_d, taken = pool_of().split(0.03, 0.02)
        assert z_d == pytest.approx(0.02, abs=1e-15)
        assert 0.03 - z_d == pytest.approx(0.01, abs=1e-15)
        assert taken == []

    def test_exact_fit_leaves_no_remainder(self):
        z_d, taken = pool_of().split(0.5, 0.5)
        assert z_d == 0.5
        assert 0.5 - z_d == 0.0
        assert taken == []

    def test_pool_candidate_is_consumed(self):
        pool = pool_of(0.01)
        z_d, taken = pool.split(0.04, 0.03)
        assert taken == [(0.01, 0)]
        assert len(pool) == 0
        assert z_d == pytest.approx(0.02, abs=1e-15)
        assert 0.04 - z_d == pytest.approx(0.02, abs=1e-15)

    def test_zero_target_moves_everything(self):
        pool = pool_of(0.3)
        z_d, taken = pool.split(0.5, 0.0)
        assert z_d == 0.0
        assert 0.5 - z_d == 0.5
        assert taken == []
        assert len(pool) == 1

    def test_candidates_at_or_below_target_stop_the_scan(self):
        # 0.2 + 0.3 = 0.5 is not strictly below x = 0.5, so only 0.2 is taken
        z_d, taken = pool_of(0.2, 0.3).split(0.4, 0.5)
        assert taken == [(0.2, 0)]
        assert z_d == pytest.approx(0.3, abs=1e-15)

    def test_rejects_candidate_larger_than_z(self):
        # 0.2 is popped first (0.2 < 0.45) and exceeds z = 0.1
        with pytest.raises(mec.InfeasibleSplitError, match="candidate 0"):
            pool_of(0.2, 0.3).split(0.1, 0.45)

    def test_rejects_unreachable_target(self):
        with pytest.raises(mec.InfeasibleSplitError, match="target"):
            pool_of().split(0.1, 0.5)

    @given(
        st.floats(1e-3, 1.0),
        st.floats(0.0, 1.0),
        st.lists(st.floats(0.0, 1.0), max_size=8),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_split_conserves_and_hits_target(self, z, scale, raw_pool, frac):
        cap = max(raw_pool, default=0.0)
        factor = min(1.0, z / cap) * scale if cap > 0.0 else 0.0
        records = [(m * factor, k) for k, m in enumerate(raw_pool) if m * factor > 0.0]
        pool = MassPool()
        for record in records:
            pool.push(*record)
        x = frac * (z + sum(m for m, _ in records))
        z_d, taken = pool.split(z, x)
        # the engines relocate z - z_d; it must be a non-negative piece of z
        z_r = z - z_d
        assert 0.0 <= z_d <= z
        assert 0.0 <= z_r <= z
        assert taken == sorted(records)[: len(taken)]  # smallest first
        assert len(pool) == len(records) - len(taken)
        filled = z_d + math.fsum(m for m, _ in taken)
        assert filled == pytest.approx(x, abs=1e-12)


class TestMassPool:
    def test_total_tracks_fsum(self):
        rng = random.Random(11)
        pool = MassPool()
        live = []
        for step in range(200):
            if live and rng.random() < 0.4:
                drained = pool.drain()
                assert [m for m, _ in drained] == sorted(m for m, _ in drained)
                live.clear()
            else:
                m = rng.random() + 1e-9
                pool.push(m, step)
                live.append(m)
            assert pool.total == pytest.approx(math.fsum(live), abs=1e-12)

    def test_extraction_is_min_first_with_origin_tiebreak(self):
        pool = MassPool()
        pool.push(0.2, 3)
        pool.push(0.1, 7)
        pool.push(0.1, 2)
        assert pool.drain() == [(0.1, 2), (0.1, 7), (0.2, 3)]
        assert pool.total == 0.0

    def test_push_rejects_non_positive_mass(self):
        pool = MassPool()
        with pytest.raises(ValueError):
            pool.push(0.0, 0)
        with pytest.raises(ValueError):
            pool.push(-0.1, 0)

    def test_push_rejects_nan_mass(self):
        pool = pool_of(0.25)
        with pytest.raises(ValueError, match="pool masses must be positive, got nan"):
            pool.push(math.nan, 1)
        assert len(pool) == 1
        assert pool.total == 0.25

    def test_split_extracts_smallest_records(self):
        pool = pool_of(0.3, 0.05, 0.1)
        z_d, taken = pool.split(0.2, 0.3)
        assert taken == [(0.05, 1), (0.1, 2)]
        assert z_d == pytest.approx(0.15, abs=1e-15)
        assert len(pool) == 1
        assert pool.total == pytest.approx(0.3, abs=1e-12)

    def test_split_rejects_unreachable_target(self):
        with pytest.raises(mec.InfeasibleSplitError, match="target"):
            pool_of(0.1).split(0.1, 0.5)


@pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
class TestEngines:
    def test_identical_marginals_give_diagonal(self, engine):
        cells = entries_by_cell(engine(WORKED_P, WORKED_P))
        assert set(cells) == {(k, k) for k in range(len(WORKED_P))}
        for k, want in enumerate(WORKED_P):
            assert cells[(k, k)] == pytest.approx(want, abs=1e-12)

    def test_point_mass_column(self, engine):
        m = engine([0.5, 0.5], [1.0])
        assert entries_by_cell(m) == {(0, 0): 0.5, (1, 0): 0.5}

    def test_point_mass_row(self, engine):
        m = engine([1.0], [0.5, 0.5])
        assert entries_by_cell(m) == {(0, 0): 0.5, (0, 1): 0.5}

    def test_single_component(self, engine):
        m = engine([1.0], [1.0])
        assert entries_by_cell(m) == {(0, 0): 1.0}

    def test_worked_pair_is_valid_and_near_optimal(self, engine):
        m = engine(WORKED_P, WORKED_Q, debug=True)
        ok, why = mec.is_valid_coupling(m, WORKED_P, WORKED_Q)
        assert ok, why
        assert len(m.entries) <= 2 * 6
        h = mec.shannon_entropy(m.values())
        assert H_WORKED_GLB - 1e-9 <= h <= H_WORKED_GLB + 1.0 + 1e-9

    def test_split_pool_regression_pair(self, engine):
        m = engine(TRICKY_P, TRICKY_Q, debug=True)
        ok, why = mec.is_valid_coupling(m, TRICKY_P, TRICKY_Q)
        assert ok, why

    def test_explicit_zeros_in_marginals(self, engine):
        p = [0.5, 0.0, 0.5]
        q = [0.0, 1.0]
        m = engine(p, q, debug=True)
        ok, why = mec.is_valid_coupling(m, p, q)
        assert ok, why
        assert entries_by_cell(m) == {(0, 1): 0.5, (2, 1): 0.5}

    def test_random_pairs_stay_valid_and_within_one_bit(self, engine):
        rng = random.Random(23)
        for _ in range(120):
            n = rng.randint(1, 7)
            m_ = rng.randint(1, 7)
            p = random_masses(rng, n)
            q = random_masses(rng, m_)
            # sprinkle explicit zeros without changing the totals
            if rng.random() < 0.3:
                p.insert(rng.randrange(len(p) + 1), 0.0)
            coupling = engine(p, q, debug=True)
            ok, why = mec.is_valid_coupling(coupling, p, q)
            assert ok, why
            assert len(coupling.entries) <= 2 * max(len(p), len(q))
            h_z = mec.shannon_entropy(mec.glb(p, q).masses)
            h = mec.shannon_entropy(coupling.values())
            assert h_z - 1e-9 <= h <= h_z + 1.0 + 1e-9

    def test_coordinates_follow_caller_order(self, engine):
        rng = random.Random(41)
        p_sorted = random_masses(rng, 6)
        p_sorted.sort(reverse=True)
        q_sorted = random_masses(rng, 5)
        q_sorted.sort(reverse=True)
        row_map = list(range(6))
        col_map = list(range(5))
        rng.shuffle(row_map)
        rng.shuffle(col_map)
        p = [0.0] * 6
        q = [0.0] * 5
        for pos, dest in enumerate(row_map):
            p[dest] = p_sorted[pos]
        for pos, dest in enumerate(col_map):
            q[dest] = q_sorted[pos]
        base = entries_by_cell(engine(p_sorted, q_sorted))
        moved = entries_by_cell(engine(p, q))
        assert moved == {
            (row_map[r], col_map[c]): v for (r, c), v in base.items()
        }
        ok, why = mec.is_valid_coupling(engine(p, q), p, q)
        assert ok, why

    def test_trailing_zero_padding_is_bitwise_neutral(self, engine):
        base = engine(WORKED_P, WORKED_Q)
        padded = engine(WORKED_P, list(WORKED_Q) + [0.0, 0.0])
        assert padded.n_cols == 8
        assert entries_by_cell(padded) == entries_by_cell(base)

    def test_deterministic_across_runs(self, engine):
        rng = random.Random(59)
        for _ in range(10):
            p = random_masses(rng, rng.randint(2, 6))
            q = random_masses(rng, rng.randint(2, 6))
            assert engine(p, q).entries == engine(p, q).entries

    def test_accepts_plain_sequences_and_distributions(self, engine):
        from_raw = engine(list(WORKED_P), tuple(WORKED_Q))
        from_dist = engine(
            mec.make_distribution(WORKED_P), mec.make_distribution(WORKED_Q)
        )
        assert from_raw.entries == from_dist.entries


class TestEngineAgreement:
    def test_worked_pair_identical_output(self):
        dense = mec.min_entropy_coupling_dense(WORKED_P, WORKED_Q)
        sparse = mec.min_entropy_coupling_sparse(WORKED_P, WORKED_Q)
        assert dense.entries == sparse.entries

    def test_worked_pair_known_cells(self):
        cells = entries_by_cell(mec.min_entropy_coupling_sparse(WORKED_P, WORKED_Q))
        assert cells[(5, 5)] == pytest.approx(0.02, abs=1e-12)
        assert cells[(5, 4)] == pytest.approx(0.01, abs=1e-12)
        assert cells[(4, 4)] == pytest.approx(0.02, abs=1e-12)

    def test_seeded_pairs_match_bit_for_bit(self):
        rng = random.Random(67)
        for _ in range(60):
            p = random_masses(rng, rng.randint(1, 6))
            q = random_masses(rng, rng.randint(1, 6))
            dense = mec.min_entropy_coupling_dense(p, q)
            sparse = mec.min_entropy_coupling_sparse(p, q)
            assert dense.entries == sparse.entries

    def test_seeded_sweep_matches_bit_for_bit_under_debug(self):
        rng = random.Random(2000)
        for _ in range(2000):
            p = random_masses(rng, rng.randint(1, 9))
            q = random_masses(rng, rng.randint(1, 9))
            dense = mec.min_entropy_coupling_dense(p, q, debug=True)
            sparse = mec.min_entropy_coupling_sparse(p, q, debug=True)
            assert dense.entries == sparse.entries

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_unequal_lengths_with_zeros_match_under_debug(self, data):
        def marginal(n: int) -> list[float]:
            weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
            total = math.fsum(weights)
            masses = [w / total for w in weights]
            for _ in range(data.draw(st.integers(0, 2))):
                masses.insert(data.draw(st.integers(0, len(masses))), 0.0)
            return masses

        n = data.draw(st.integers(1, 7))
        m = data.draw(st.integers(1, 7).filter(lambda k: k != n))
        p, q = marginal(n), marginal(m)
        dense = mec.min_entropy_coupling_dense(p, q, debug=True)
        sparse = mec.min_entropy_coupling_sparse(p, q, debug=True)
        assert dense.entries == sparse.entries


class TestDenseCap:
    def test_rejects_a_side_over_the_cap(self):
        n = DENSE_CAP + 1
        with pytest.raises(mec.TooLargeError, match="dense engine"):
            mec.min_entropy_coupling_dense([1.0], [1.0 / n] * n)


class TestSparseCouplingType:
    def test_rejects_non_positive_value(self):
        with pytest.raises(ValueError):
            mec.SparseCoupling(1, 1, (mec.CouplingEntry(0.0, 0, 0),))

    def test_rejects_out_of_range_cell(self):
        with pytest.raises(ValueError):
            mec.SparseCoupling(2, 2, (mec.CouplingEntry(1.0, 2, 0),))

    def test_rejects_duplicate_cell(self):
        entries = (mec.CouplingEntry(0.5, 0, 0), mec.CouplingEntry(0.5, 0, 0))
        with pytest.raises(ValueError):
            mec.SparseCoupling(1, 1, entries)

    def test_rejects_support_over_twice_max_side(self):
        entries = tuple(
            mec.CouplingEntry(1.0 / 9.0, r, c) for r in range(3) for c in range(3)
        )[:7]
        with pytest.raises(ValueError):
            mec.SparseCoupling(3, 3, entries)

    def test_value_semantics(self):
        m = mec.min_entropy_coupling_sparse(WORKED_P, WORKED_Q)
        rebuilt = mec.SparseCoupling(m.n_rows, m.n_cols, list(m.entries))
        assert rebuilt == m and hash(rebuilt) == hash(m)
        assert m != mec.SparseCoupling(m.n_rows, m.n_cols + 1, m.entries)
        assert repr(m) == (
            f"SparseCoupling(n_rows={m.n_rows}, n_cols={m.n_cols}, entries={m.entries!r})"
        )
        for copied in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
            assert copied == m and copied.values() == m.values()
        with pytest.raises(AttributeError):
            m.n_rows = 1
        with pytest.raises(AttributeError):
            del m.rows


class TestFromCells:
    """The engines' construction path keeps the public constructor's checks."""

    @pytest.mark.parametrize(
        "n_rows, n_cols, cells, message",
        [
            (2, 2, [(0, 0, 0.5), (0, 1, 0.0), (1, 1, 0.5)],
             "entry (0, 1) must be positive, got 0.0"),
            # sub-1e-12 mass in a padded column of a 3 x 2 pair
            (3, 2, [(0, 0, 0.6), (1, 1, 0.4), (2, 2, 1e-13)],
             "entry (2, 2) outside 3 x 2"),
            (2, 2, [(0, 0, 0.25), (0, 0, 0.25), (1, 1, 0.5)],
             "duplicate entry at (0, 0)"),
            # cells in any order: the repeat need not be adjacent
            (2, 2, [(0, 0, 0.25), (1, 1, 0.5), (0, 0, 0.25)],
             "duplicate entry at (0, 0)"),
            # a NaN index is unequal to everything, so it is neither in range
            # nor ordered; min and max would pass it
            (2, 2, [(0, 0, 0.5), (math.nan, 1, 0.5)],
             "entry (nan, 1) outside 2 x 2"),
            (2, 2, [(0, 0, 0.5), (1, math.nan, 0.5)],
             "entry (1, nan) outside 2 x 2"),
            (2, 2, [(0, 0, 0.5), (1, 1, math.nan)],
             "entry (1, 1) must be finite, got nan"),
            (2, 2, [(0, 0, math.inf), (1, 1, 0.5)],
             "entry (0, 0) must be finite, got inf"),
            (3, 3, [(r, c, 1.0 / 7.0) for r in range(3) for c in range(3)][:7],
             "7 entries exceed the 2*max(n_rows, n_cols) support bound"),
            # the first bad cell in order is named, as by a per-cell check
            (2, 2, [(0, 0, 0.5), (0, 0, 0.5), (0, 5, -1.0)],
             "duplicate entry at (0, 0)"),
        ],
        ids=["non-positive", "padded-column", "duplicate", "unsorted-duplicate", "nan-row",
             "nan-column", "nan-value", "inf-value", "over-support", "first-bad"],
    )
    def test_rejects_what_the_public_constructor_rejects(self, n_rows, n_cols, cells, message):
        entries = tuple(mec.CouplingEntry(v, r, c) for r, c, v in cells)
        with pytest.raises(ValueError) as public:
            mec.SparseCoupling(n_rows, n_cols, entries)
        with pytest.raises(ValueError) as private:
            from_cells(n_rows, n_cols, cells)
        assert str(private.value) == str(public.value) == message

    def test_matches_the_public_constructor(self):
        m = mec.min_entropy_coupling_sparse(WORKED_P, WORKED_Q)
        rebuilt = mec.SparseCoupling(m.n_rows, m.n_cols, m.entries)
        assert rebuilt == m
        assert rebuilt.values() == m.values()
        assert m.entries == tuple(
            mec.CouplingEntry(v, r, c) for v, r, c in zip(m.values(), m.rows, m.cols)
        )
        assert list(zip(m.rows, m.cols)) == sorted(zip(m.rows, m.cols))


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def first_bad_message(n_rows: int, n_cols: int, cells) -> str | None:
    """The constructor's message for the first bad (row, col, value) cell,
    in the order given, by a check of one cell at a time; an index that is
    not an int is out of range."""
    seen = set()
    for r, c, v in cells:
        if v <= 0.0:
            return f"entry ({r}, {c}) must be positive, got {v!r}"
        if not math.isfinite(v):
            return f"entry ({r}, {c}) must be finite, got {v!r}"
        if not all(type(i) is int and 0 <= i < n for i, n in ((r, n_rows), (c, n_cols))):
            return f"entry ({r}, {c}) outside {n_rows} x {n_cols}"
        if (r, c) in seen:
            return f"duplicate entry at ({r}, {c})"
        seen.add((r, c))
    return None


def engine_cells(rng: random.Random, n_rows: int, n_cols: int) -> list[tuple[int, int, float]]:
    m = mec.min_entropy_coupling_sparse(random_masses(rng, n_rows), random_masses(rng, n_cols))
    return list(zip(m.rows, m.cols, m.values()))


def bad_cells(rng: random.Random, kind: str, cells, n_rows: int, n_cols: int):
    """Two bad cells of one kind for a coupling holding ``cells``."""
    taken = {(r, c) for r, c, _ in cells}
    free = [(r, c) for r in range(n_rows) for c in range(n_cols) if (r, c) not in taken]
    (r1, c1), (r2, c2) = rng.sample(free, 2)
    if kind == "non-positive":
        return [(r1, c1, 0.0), (r2, c2, -0.25)]
    if kind in ("nan", "inf"):
        value = math.nan if kind == "nan" else math.inf
        return [(r1, c1, value), (r2, c2, value)]
    if kind == "range":
        return [(n_rows, c1, 0.125), (r2, -1, 0.125)]
    if kind == "duplicate":
        return [(r, c, 0.125) for r, c, _ in rng.sample(cells, 2)]
    return [(float(r1), c1, 0.125), (r2, c2 + 0.5, 0.125)]


BAD_KINDS = ["non-positive", "nan", "inf", "range", "duplicate", "non-integer"]


class TestOneCheckedBuild:
    """Every coupling is built through ``_CellStore._fill``: the public
    constructor clears cells in any order by C-level passes, and any input
    with a bad cell names the first one in the order given."""

    def test_a_shuffled_engine_coupling_is_never_walked(self, monkeypatch):
        rng = random.Random(2600)
        m = mec.min_entropy_coupling_sparse(random_masses(rng, 8000), random_masses(rng, 7000))
        entries = list(m.entries)
        assert len(entries) >= 10_000
        rng.shuffle(entries)
        walks = []
        walk = coupling._bad_cell_walk
        monkeypatch.setattr(coupling, "_bad_cell_walk",
                            lambda *args: walks.append(1) or walk(*args))
        rebuilt = mec.SparseCoupling(m.n_rows, m.n_cols, entries)
        assert walks == []
        assert set(zip(rebuilt.rows, rebuilt.cols, rebuilt.values())) == set(
            zip(m.rows, m.cols, m.values()))
        # a bad cell is still walked to, and named
        entries.append(mec.CouplingEntry(0.5, 0, m.n_cols))
        with pytest.raises(ValueError, match=rf"^entry \(0, {m.n_cols}\) outside "):
            mec.SparseCoupling(m.n_rows, m.n_cols, entries)
        assert walks == [1]

    @pytest.mark.parametrize("kind", BAD_KINDS)
    def test_shuffled_input_names_the_first_bad_cell(self, kind):
        rng = random.Random(f"coupling-{kind}")
        for _ in range(40):
            n_rows, n_cols = rng.randint(3, 9), rng.randint(3, 9)
            good = engine_cells(rng, n_rows, n_cols)
            cells = good + bad_cells(rng, kind, good, n_rows, n_cols)
            rng.shuffle(cells)
            message = first_bad_message(n_rows, n_cols, cells)
            assert message is not None
            entries = [mec.CouplingEntry(v, r, c) for r, c, v in cells]
            with pytest.raises(ValueError) as exc:
                mec.SparseCoupling(n_rows, n_cols, entries)
            assert str(exc.value) == message

    def test_raw_cells_accept_exactly_what_finish_accepts(self):
        # seeded walks, some with sub-1e-12 tails that drain into a padded
        # line, and one planted bad cell in most of them
        rng = random.Random(2601)
        accepted = rejected = 0
        for _ in range(300):
            p = random_masses(rng, rng.randint(1, 30))
            q = random_masses(rng, rng.randint(1, 30))
            if rng.random() < 0.2:
                q = [x * (1.0 - 3e-13) for x in q] + [1e-13, 2e-13]
            vals, wr, wc, dp, dq, n_rows, n_cols = _walk(_checked(p), _checked(q))[0]
            kind = rng.choice(["none", "zero", "nan", "inf", "range", "repeat", "count"])
            k = rng.randrange(len(vals))
            if kind == "zero":
                vals[k] = 0.0
            elif kind in ("nan", "inf"):
                vals[k] = math.nan if kind == "nan" else math.inf
            elif kind == "range":
                # a padded line: the shorter marginal's, past its length
                if n_rows < dp.n:
                    wr[k] = rng.randrange(n_rows, dp.n)
                elif n_cols < dq.n:
                    wc[k] = rng.randrange(n_cols, dq.n)
            elif kind == "repeat":
                vals.insert(k, 0.125)
                wr.insert(k, wr[k])
                wc.insert(k, wc[k])
            elif kind == "count":
                extra = 2 * max(n_rows, n_cols) + 1 - len(vals)
                vals += [1e-3] * extra
                wr += [0] * extra
                wc += [0] * extra
            cells = (vals, wr, wc, dp, dq, n_rows, n_cols)
            want = outcome(_finish, *copied_cells(cells))
            got = outcome(_raw_cells, cells)
            if isinstance(want, mec.SparseCoupling):
                assert got == (vals, wr, wc)
                accepted += 1
            else:
                assert got == want and want[0] is ValueError
                rejected += 1
        assert accepted > 30 and rejected > 100


class TestFinishConsumesTheWalk:
    """``_finish`` empties the walk's value, row and col lists as it reads
    them, so the output step never holds a column in both working and caller
    coordinates, and the engine peaks near what its coupling keeps."""

    def test_finish_empties_its_lists_and_builds_what_a_copy_builds(self):
        rng = random.Random(2801)
        for n, m in ((1, 1), (7, 3), (40, 55), (300, 200)):
            cells = _walk(_checked(random_masses(rng, n)), _checked(random_masses(rng, m)))[0]
            want = _finish(*copied_cells(cells))
            got = _finish(*cells)
            assert cells[:3] == ([], [], [])
            assert got == want and repr(got) == repr(want)

    def test_a_failing_finish_empties_its_lists_too(self):
        rng = random.Random(2802)
        cells = _walk(_checked(random_masses(rng, 9)), _checked(random_masses(rng, 6)))[0]
        cells[0][-1] = 0.0
        with pytest.raises(ValueError, match="must be positive, got 0.0"):
            _finish(*cells)
        assert cells[:3] == ([], [], [])

    def test_the_engine_peaks_near_what_its_coupling_keeps(self):
        # a raw unsorted n = 2e4 pair. An output step that kept the walk's
        # columns beside their caller-coordinate copies and the sort order
        # peaked at 2.67x what the coupling retains; one that empties each
        # column once read peaks at 1.94x
        rng = random.Random(2803)
        p, q = random_masses(rng, 20_000), random_masses(rng, 20_000)
        gc.collect()
        tracemalloc.start()
        try:
            m = mec.min_entropy_coupling_sparse(p, q)
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(m.values()) > 30_000
        assert peak <= 2.2 * retained, (peak, retained)


class TestIndicesMustBeIntegers:
    """The public constructor rejects an index that is not an integer, as
    out of range, naming the cell as given; bool and integer types with
    ``__index__`` pass."""

    @pytest.mark.parametrize(
        "cells, message",
        [
            ([(0, 0, 0.5), (1.0, 0, 0.5)], "entry (1.0, 0) outside 2 x 1"),
            ([(0, 0, 0.5), (0.5, 0, 0.5)], "entry (0.5, 0) outside 2 x 1"),
            ([(0, 0.0, 0.5), (1, 0, 0.5)], "entry (0, 0.0) outside 2 x 1"),
            ([(0, "0", 0.5), (1, 0, 0.5)], "entry (0, '0') outside 2 x 1"),
            # the value is checked before the index
            ([(1.0, 0, -0.5)], "entry (1.0, 0) must be positive, got -0.5"),
        ],
        ids=["float-row", "fractional-row", "float-col", "str-col", "value-first"],
    )
    def test_rejects_an_index_that_is_not_an_integer(self, cells, message):
        with pytest.raises(ValueError) as exc:
            mec.SparseCoupling(2, 1, [mec.CouplingEntry(v, r, c) for r, c, v in cells])
        assert str(exc.value) == message

    def test_bool_and_integer_indices_pass(self):
        class Row(int):
            pass

        m = mec.SparseCoupling(2, 2, [mec.CouplingEntry(0.5, False, True),
                                      mec.CouplingEntry(0.5, Row(1), 0)])
        assert m.rows == (False, 1) and m.cols == (True, 0)
        assert mec.is_valid_coupling(m, [0.5, 0.5], [0.5, 0.5]) == (True, "ok")

    def test_numpy_integer_indices_pass(self):
        np = pytest.importorskip("numpy")
        m = mec.SparseCoupling(2, 1, [mec.CouplingEntry(0.5, np.int64(0), np.int32(0)),
                                      mec.CouplingEntry(0.5, np.int64(1), 0)])
        assert mec.is_valid_coupling(m, [0.5, 0.5], [1.0]) == (True, "ok")
        # the index prints as its repr, which numpy 2 gives as np.float64(1.0)
        row = np.float64(1.0)
        with pytest.raises(ValueError, match=rf"^entry \({re.escape(repr(row))}, 0\) outside 2 x 1$"):
            mec.SparseCoupling(2, 1, [mec.CouplingEntry(0.5, 0, 0),
                                      mec.CouplingEntry(0.5, row, 0)])


class TestBitIdentityPin:
    """Digests of engine output, float bits included, frozen from the
    entry-per-cell implementation that preceded the columnar one; the k = 5
    joint of random marginals is that of the merge tree without padding."""

    # (seed, len p, len q, zeros in p), digest for (p, q), digest for (q, p)
    PAIRS = [
        (37, 37, 29, 3,
         "98a777f9c949af861a203127ce0202065bacda7f619518e7e52185d182e0e6c4",
         "cd74e73bff982781d5656f2d61829490dc1bdbf96fc761b71de77755b9665547"),
        (1000, 1000, 1000, 5,
         "8f375445c203443ba2a8630dd9d73c67df81eb23aa630732c524603cb1c9463c",
         "b9928bc1f40c91325655c227c42c7a676b083ed6be4ff6f4f7ac4dbe6cc7a467"),
        (50000, 50000, 48500, 40,
         "99e74c0851a557b64edb909cbd30c8a5695c46d1157bb649ca4213d3bf95ed77",
         "00da56eef2f22a7b814a1ac9977d0f90c7b61e1764b88562abff6b238d450f25"),
    ]
    JOINT_K5 = "30aa37e68f162517ea81a0d44fe0f434295fb1be48d052c8e33d003786e5f8bd"
    JOINT_K5_TIES = "dbc18a692ad1157f8183e20b94c59ab9fbbcba2305397c23a85509464485de8f"

    @pytest.mark.parametrize("seed, n, m, zeros, forward, reverse", PAIRS,
                             ids=[str(case[0]) for case in PAIRS])
    def test_sparse_output_is_bit_identical(self, seed, n, m, zeros, forward, reverse):
        rng = random.Random(seed)
        p = zero_padded_masses(rng, n, zeros)
        q = zero_padded_masses(rng, m, zeros // 2)
        for a, b, digest in ((p, q, forward), (q, p, reverse)):
            c = mec.min_entropy_coupling_sparse(a, b)
            assert _sha256(
                f"{v.hex()} {r} {col}" for v, r, col in zip(c.values(), c.rows, c.cols)
            ) == digest

    def test_k_way_output_is_bit_identical(self):
        rng = random.Random(5)
        ds = [zero_padded_masses(rng, rng.randint(40, 300), rng.randint(0, 3)) for _ in range(5)]
        joint = mec.min_entropy_joint_k(ds)
        assert len(joint.entries) == 1067
        assert _sha256(f"{e.value.hex()} {e.coords}" for e in joint.entries) == self.JOINT_K5

    def test_k_way_ties_are_bit_identical(self):
        # dyadic masses tie often, so the merges' tie-break order shows
        rng = random.Random(64)
        ds = [grid64_masses(rng, rng.randint(3, 12)) for _ in range(5)]
        joint = mec.min_entropy_joint_k(ds)
        assert len(joint.entries) == 25
        assert _sha256(f"{e.value.hex()} {e.coords}" for e in joint.entries) == self.JOINT_K5_TIES


class TestQuickTourPin:
    """Digests of what the quick tour computes besides the coupling, over
    the pairs of :class:`TestBitIdentityPin` in both orders: the glb's
    masses (float bits) and permutation from raw lists and from
    distributions, three ``majorizes`` results, and the ``is_valid_coupling``
    verdicts on the engine output at three tolerances."""

    # per pair: (glb digest, majorizes results, verdicts digest) for (p, q),
    # then for (q, p)
    PINS = {
        37: (("fdbc812e0a52827560291707c788068615d8051ff08e551a301e7d574d00bc10",
              (True, True, True),
              "e3e87bba30a5b6566853963b2aa347f88621772b4d3d017266fb0c979e8c3e36"),
             ("fdbc812e0a52827560291707c788068615d8051ff08e551a301e7d574d00bc10",
              (False, True, False),
              "fb9913a7993218975b4829e52f69d7f41f7ad290712ba6d2b4c945a57ad3e6a6")),
        1000: (("c65adbdaa362de5be545efbb2815a3c0d8ef809a1bc39777ee7b1daa992f9b6b",
                (False, True, False),
                "b7cb92c034d63ec6c43ea0bf6909b7ce66102b43d50aa97a59d4f9f03c617703"),
               ("c65adbdaa362de5be545efbb2815a3c0d8ef809a1bc39777ee7b1daa992f9b6b",
                (False, True, False),
                "48cd3535ed3ec3c798080b7178705c2dcfe1fa3d39d913457908f89bfbf17ae0")),
        50000: (("4958c8f2901fcb6aa8f72252ad1b484cd47065e3b95dd7fa095d040c3ca6c124",
                 (True, True, True),
                 "f445926eefc3556b055cc43c6efe6c0d2ad5644ec3bb3511dbe4a5e8fca1e43a"),
                ("4958c8f2901fcb6aa8f72252ad1b484cd47065e3b95dd7fa095d040c3ca6c124",
                 (False, True, False),
                 "46c90b19e8205102eb91ebfd7f7e231559af4e69bfd0499a3c307cc5319e58fe")),
    }

    @pytest.mark.parametrize("seed, n, m, zeros", [case[:4] for case in TestBitIdentityPin.PAIRS],
                             ids=[str(case[0]) for case in TestBitIdentityPin.PAIRS])
    def test_quick_tour_results_are_bit_identical(self, seed, n, m, zeros):
        rng = random.Random(seed)
        p = zero_padded_masses(rng, n, zeros)
        q = zero_padded_masses(rng, m, zeros // 2)
        for (a, b), (glb_digest, ordered, verdicts) in zip(((p, q), (q, p)), self.PINS[seed]):
            da, db = mec.make_distribution(a), mec.make_distribution(b)
            for z in (mec.glb(a, b), mec.glb(da, db)):
                assert _sha256(f"{x.hex()} {k}" for x, k in zip(z.masses, z.perm)) == glb_digest
            assert (mec.majorizes(a, b), mec.majorizes(z, a), mec.majorizes(a, z)) == ordered
            assert (mec.majorizes(da, db), mec.majorizes(z, da), mec.majorizes(da, z)) == ordered
            c = mec.min_entropy_coupling_sparse(a, b)
            for x, y in ((a, b), (da, db)):
                got = [mec.is_valid_coupling(c, x, y, tol) for tol in (1e-9, 1e-15, 0.0)]
                assert _sha256(map(repr, got)) == verdicts


class TestOracleBitIdentityPin:
    """Digest of the oracle's optimum and argmin grid, float bits included,
    frozen from the enumerator that filtered every edge subset; a change of
    tree order shows here as a different first argmin among ties."""

    # the certify-small benchmark shapes
    SHAPES = [(4, 5), (5, 4), (2, 10), (10, 2), (4, 4), (3, 5),
              (5, 3), (3, 4), (4, 3), (2, 6), (6, 2), (3, 3)]
    DIGEST = "e2270cae900025e95d0319cfe75741dc93391d25813cf69135971c727b437dd8"

    def test_oracle_is_bit_identical(self):
        rng = random.Random(20)
        lines = []
        for n, m in self.SHAPES:
            # random masses, then dyadic ones whose ties give degenerate vertices
            for masses in (random_masses, grid64_masses):
                res = mec.brute_force_min_entropy(masses(rng, n), masses(rng, m))
                grid = [v.hex() for row in res.argmin.grid for v in row]
                lines.append(" ".join([res.opt_value.hex(), *grid]))
        assert _sha256(lines) == self.DIGEST


class TestIsValidCoupling:
    def diag(self, masses):
        entries = tuple(
            mec.CouplingEntry(v, k, k) for k, v in enumerate(masses) if v > 0
        )
        return mec.SparseCoupling(len(masses), len(masses), entries)

    def test_accepts_a_correct_coupling(self):
        ok, why = mec.is_valid_coupling(self.diag(WORKED_P), WORKED_P, WORKED_P)
        assert ok
        assert why == "ok"

    def test_names_first_bad_row(self):
        ok, why = mec.is_valid_coupling(
            self.diag((0.6, 0.4)), (0.5, 0.5), (0.6, 0.4)
        )
        assert not ok
        assert why.startswith("row 0 ")

    def test_names_first_bad_column(self):
        ok, why = mec.is_valid_coupling(
            self.diag((0.6, 0.4)), (0.6, 0.4), (0.4, 0.6)
        )
        assert not ok
        assert why.startswith("column 0 ")

    def test_reports_shape_mismatch(self):
        m = self.diag((0.6, 0.4))
        ok, why = mec.is_valid_coupling(m, (0.6, 0.3, 0.1), (0.6, 0.4))
        assert not ok
        assert "n_rows" in why
        ok, why = mec.is_valid_coupling(m, (0.6, 0.4), (0.6, 0.3, 0.1))
        assert not ok
        assert "n_cols" in why

    def test_tolerance_is_adjustable(self):
        m = self.diag((0.6003, 0.3997))
        ok, _ = mec.is_valid_coupling(m, (0.6, 0.4), (0.6003, 0.3997), tol=1e-9)
        assert not ok
        ok, _ = mec.is_valid_coupling(m, (0.6, 0.4), (0.6003, 0.3997), tol=1e-3)
        assert ok

    @pytest.mark.parametrize(
        "cells, tol, outcome",
        [
            ((0.6, 0.4), 1e-3, (True, "ok")),
            ((0.5, 0.5), 1e-3, (False, "row 0 sums to 0.5, expected 0.6003")),
            ((0.6, 0.4), 1e-4, "masses sum to 1.0003, expected 1 within 0.0001"),
            ((0.6, 0.4), math.nan, "masses sum to 1.0003, expected 1 within 1e-09"),
        ],
    )
    def test_tol_widens_the_check_of_raw_marginals(self, cells, tol, outcome):
        # raw marginals are checked at max(NORMALIZATION_TOL, tol): a caller
        # who widens tol gets a verdict on marginals off by more than 1e-9
        m = self.diag(cells)
        if isinstance(outcome, str):
            with pytest.raises(mec.NotNormalizedError, match=re.escape(outcome)):
                mec.is_valid_coupling(m, [0.6003, 0.4], [0.6003, 0.4], tol=tol)
        else:
            assert mec.is_valid_coupling(m, [0.6003, 0.4], [0.6003, 0.4], tol=tol) == outcome

    def test_rejects_a_nan_cell_or_target(self):
        # the constructors reject a NaN cell, so plant one in a built coupling
        m = self.diag((0.5, 0.5))
        object.__setattr__(m, "_values", (0.5, math.nan))
        ok, why = mec.is_valid_coupling(m, (0.5, 0.5), (0.5, 0.5))
        assert (ok, why) == (False, "entry (1, 1) has non-finite value nan")
        # a NaN line total or target is off by more than any tol
        target = mec.Distribution((math.nan, 0.5), (0, 1))
        ok, why = mec.is_valid_coupling(self.diag((0.5, 0.5)), target, (0.5, 0.5))
        assert (ok, why) == (False, "row 0 sums to 0.5, expected nan")


def reference_is_valid_coupling(m, p, q, tol=mec.NORMALIZATION_TOL):
    """``is_valid_coupling`` as it stood before the plain-sum screen: both
    marginals through ``as_distribution`` (raw ones checked at
    ``max(NORMALIZATION_TOL, tol)``) and back to caller order, and one
    ``fsum`` per line."""
    raw_tol = max(mec.NORMALIZATION_TOL, tol)
    dp = mec.as_distribution(p, raw_tol)
    dq = mec.as_distribution(q, raw_tol)
    if m.n_rows != dp.n:
        return False, f"n_rows is {m.n_rows}, first marginal has {dp.n} components"
    if m.n_cols != dq.n:
        return False, f"n_cols is {m.n_cols}, second marginal has {dq.n} components"
    rows, cols, values = m.rows, m.cols, m.values()
    bad = _first_bad_cell((m.n_rows, m.n_cols), (rows, cols), values)
    if bad is not None:
        kind, k, _ = bad
        return False, _CELL_DIAGNOSTICS[kind].format(row=rows[k], col=cols[k], value=values[k])
    for name, index, n, target in (
        ("row", rows, m.n_rows, dp.to_caller_order()),
        ("column", cols, m.n_cols, dq.to_caller_order()),
    ):
        lines: list[list[float]] = [[] for _ in range(n)]
        for k, value in zip(index, values):
            lines[k].append(value)
        totals = list(map(math.fsum, lines))
        # NaN-safe: a NaN total or target is off by more than any tol
        off = map(abs, map(operator.sub, totals, target))
        if not all(map(operator.le, off, repeat(tol))):
            k = next(k for k in range(n) if not abs(totals[k] - target[k]) <= tol)
            return False, f"{name} {k} sums to {totals[k]!r}, expected {target[k]!r}"
    bound = 2 * max(m.n_rows, m.n_cols)
    if len(values) > bound:
        return False, f"{len(values)} entries exceed the support bound {bound}"
    return True, "ok"


def outcome(check, *args):
    """The verdict of ``check(*args)``, or the type and message it raised."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - any exception must match the reference's
        return type(exc), str(exc)


def planted(n_rows: int, n_cols: int, cells) -> mec.SparseCoupling:
    """A coupling holding ``cells`` = [(row, col, value)] as given, unchecked."""
    m = from_cells(1, 1, [])
    for name, value in (("n_rows", n_rows), ("n_cols", n_cols)):
        object.__setattr__(m, name, value)
    for name, k in (("rows", 0), ("cols", 1), ("_values", 2)):
        object.__setattr__(m, name, tuple(cell[k] for cell in cells))
    return m


def nudged(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` units in the last place (down if negative)."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


def plain_sum(values) -> float:
    """Left to right in floats (the builtin ``sum`` compensates from 3.12)."""
    return functools.reduce(operator.add, values, 0.0)


CHECK_TOLS = [0.0, 1e-15, 1e-12, 1e-9, 1e-6, math.inf, math.nan]


@st.composite
def marginals(draw, n: int) -> list[float]:
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    total = math.fsum(weights)
    masses = [w / total for w in weights]
    for _ in range(draw(st.integers(0, 2))):
        masses.insert(draw(st.integers(0, len(masses))), 0.0)
    return masses


@st.composite
def checked_targets(draw, raw: list[float]):
    """``raw`` as the checker may receive it: the raw list, a Distribution,
    a Distribution holding NaN, or a raw list that fails validation."""
    kind = draw(st.sampled_from(["raw", "distribution", "nan-distribution", "invalid"]))
    if kind == "raw":
        return raw
    if kind == "invalid":
        bad = list(raw)
        k = draw(st.integers(0, len(bad) - 1))
        how = draw(st.sampled_from(["negative", "roundoff", "nan", "inf", "scaled", "empty"]))
        if how == "empty":
            return []
        if how == "scaled":
            return [1.25 * x for x in bad]
        bad[k] = {"negative": -0.1, "roundoff": -1e-13, "nan": math.nan, "inf": math.inf}[how]
        return bad
    d = mec.make_distribution(raw)
    if kind == "nan-distribution":
        masses = list(d.masses)
        masses[draw(st.integers(0, len(masses) - 1))] = math.nan
        d = mec.Distribution(tuple(masses), d.perm)
    return d


class TestIsValidCouplingMatchesReference:
    """Same verdict and message, or the same exception, as the fsum-only
    checker, over the cases where a plain-sum screen could go wrong."""

    @given(st.data())
    @settings(max_examples=250, deadline=None)
    def test_engine_outputs(self, data):
        n = data.draw(st.integers(1, 8))
        m_ = data.draw(st.integers(1, 8))
        p, q = data.draw(marginals(n)), data.draw(marginals(m_))
        m = mec.min_entropy_coupling_sparse(p, q)
        tol = data.draw(st.sampled_from(CHECK_TOLS))
        values = list(m.values())
        k = data.draw(st.integers(0, len(values) - 1))
        how = data.draw(st.sampled_from(["none", "ulps", "tol"]))
        ulps = data.draw(st.integers(-4, 4))
        if how == "ulps":
            values[k] = nudged(values[k], ulps)
        elif how == "tol":
            values[k] = nudged(values[k] + data.draw(st.sampled_from([tol, -tol])), ulps)
        m = planted(m.n_rows, m.n_cols, list(zip(m.rows, m.cols, values)))
        tp, tq = data.draw(checked_targets(p)), data.draw(checked_targets(q))
        assert outcome(mec.is_valid_coupling, m, tp, tq, tol) == outcome(
            reference_is_valid_coupling, m, tp, tq, tol
        )

    @given(st.data())
    @settings(max_examples=250, deadline=None)
    def test_hand_built_couplings(self, data):
        # long lines in shuffled order, and targets that are the lines'
        # plain left-to-right sums or fsums, a few ulps either way
        n_rows = data.draw(st.integers(1, 4))
        n_cols = data.draw(st.integers(1, 9))
        grid = [(r, c) for r in range(n_rows) for c in range(n_cols)]
        cells = data.draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
        weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(cells),
                                     max_size=len(cells)))
        total = math.fsum(weights)
        cells = [(r, c, w / total) for (r, c), w in zip(cells, data.draw(st.permutations(weights)))]
        cells = data.draw(st.permutations(cells))
        summed = data.draw(st.sampled_from([plain_sum, math.fsum]))
        tol = data.draw(st.sampled_from(CHECK_TOLS))

        def target(axis: int, n: int) -> list[float]:
            # one line's target moves by 0 or tol, then by a few ulps
            line = [summed(v for *rc, v in cells if rc[axis] == k) for k in range(n)]
            k = data.draw(st.integers(0, n - 1))
            shift = data.draw(st.sampled_from([0.0, tol, -tol]))
            line[k] = nudged(line[k] + shift, data.draw(st.integers(-4, 4)))
            return line

        p, q = target(0, n_rows), target(1, n_cols)
        if data.draw(st.booleans()):
            p, q = (mec.Distribution(*zip(*sorted(((x, i) for i, x in enumerate(line)),
                                                  key=lambda xi: -xi[0])))
                    for line in (p, q))
        m = planted(n_rows, n_cols, cells)
        assert outcome(mec.is_valid_coupling, m, p, q, tol) == outcome(
            reference_is_valid_coupling, m, p, q, tol
        )

    @given(st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=9),
           st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6]), st.sampled_from([1.0, -1.0]),
           st.integers(-2, 2))
    @settings(max_examples=300, deadline=None)
    def test_a_line_at_the_tolerance_edge(self, weights, tol, sign, ulps):
        # the target sits tol away from the line's plain sum, give or take
        # an ulp or two, where the plain sum and fsum can get different verdicts
        total = math.fsum(weights)
        values = [w / total for w in weights]
        m = planted(1, len(values), [(0, c, v) for c, v in enumerate(values)])
        p = mec.Distribution((nudged(plain_sum(values) + sign * tol, ulps),), (0,))
        q = mec.make_distribution(values)
        assert outcome(mec.is_valid_coupling, m, p, q, tol) == outcome(
            reference_is_valid_coupling, m, p, q, tol
        )

    @pytest.mark.parametrize(
        "cells, tol",
        [
            ([(0, 0, decimal.Decimal("0.5")), (1, 1, decimal.Decimal("0.5"))], 1e-9),
            ([(0, 0, 0.5), (1, 1, 0.5)], None),
            ([(0, 0, 0.5), (1, 1, 0.5)], "1e-9"),
            ([(0, 0, 0.5), (1.0, 1, 0.5)], 1e-9),
            ([(0, 0, 0.5), (1, 1.0, 0.5)], 1e-9),
        ],
        ids=["decimal-values", "none-tol", "str-tol", "float-row", "float-col"],
    )
    def test_odd_types_match_the_reference(self, cells, tol):
        m = planted(2, 2, cells)
        got = outcome(mec.is_valid_coupling, m, [0.5, 0.5], [0.5, 0.5], tol)
        assert got == outcome(reference_is_valid_coupling, m, [0.5, 0.5], [0.5, 0.5], tol)

    @pytest.mark.parametrize(
        "tol, expected",
        [
            (0.0, (False, "row 0 sums to 0.6, expected 0.6000000000000001")),
            (1e-16, (False, "row 0 sums to 0.6, expected 0.6000000000000001")),
            (2e-16, (True, "ok")),
            (math.inf, (True, "ok")),
            (math.nan, (False, "row 0 sums to 0.6, expected 0.6000000000000001")),
        ],
    )
    def test_a_plain_sum_on_target_still_goes_to_fsum(self, tol, expected):
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right; fsum gives 0.6
        m = mec.SparseCoupling(1, 3, [mec.CouplingEntry(v, 0, c) for c, v in
                                      enumerate((0.1, 0.2, 0.3))])
        p = mec.Distribution((0.1 + 0.2 + 0.3,), (0,))
        q = mec.Distribution((0.3, 0.2, 0.1), (2, 1, 0))
        assert mec.is_valid_coupling(m, p, q, tol) == expected
        assert reference_is_valid_coupling(m, p, q, tol) == expected


class TestReplacedFieldsAreWalked:
    """An engine-built coupling whose field was replaced after construction
    gets its cells checked again: the checker trusts the construction-time
    check only for the very objects that check saw."""

    P = (0.35, 0.25, 0.2, 0.12, 0.08)
    Q = (0.3, 0.3, 0.22, 0.18)

    def built(self):
        m = mec.min_entropy_coupling_sparse(self.P, self.Q)
        # the last row and the last column both hold a cell
        assert m.n_rows - 1 in m.rows and m.n_cols - 1 in m.cols
        return m

    @staticmethod
    def first_moved(line, fixed):
        # ``line`` with its first entry replaced by ``fixed``
        return (fixed, *line[1:])

    @pytest.mark.parametrize("field", ["rows", "cols", "_values", "n_rows", "n_cols"])
    def test_a_replaced_field_gets_the_reference_diagnostic(self, field):
        m = self.built()
        assert mec.is_valid_coupling(m, self.P, self.Q) == (True, "ok")
        p, q = list(self.P), list(self.Q)
        if field == "rows":
            value = self.first_moved(m.rows, m.n_rows)
        elif field == "cols":
            value = self.first_moved(m.cols, -1)
        elif field == "_values":
            value = self.first_moved(m.values(), 0.0)
        elif field == "n_rows":
            # one row fewer: the last row's cells fall out of range, and its
            # mass moves to row 0 so that the marginal still sums to 1
            value = m.n_rows - 1
            p = [p[0] + p[-1], *p[1:-1]]
        else:
            value = m.n_cols - 1
            q = [q[0] + q[-1], *q[1:-1]]
        object.__setattr__(m, field, value)
        got = mec.is_valid_coupling(m, p, q)
        assert not got[0] and got[1].startswith("entry (")
        assert got == reference_is_valid_coupling(m, p, q)

    @pytest.mark.parametrize("row", [1.0, "1", math.nan],
                             ids=["float-row", "str-row", "nan-row"])
    def test_a_replaced_index_that_is_not_an_int_is_out_of_range(self, row):
        # the constructors' rule: unless every index is an exact int, the
        # cells are walked as given, and such an index is on no line
        m = mec.min_entropy_coupling_sparse([0.5, 0.5], [1.0])
        object.__setattr__(m, "rows", (0, row))
        assert mec.is_valid_coupling(m, [0.5, 0.5], [1.0]) == (
            False, f"entry ({row!r}, 0) is out of range")

    def test_a_replaced_empty_column_gets_a_verdict(self):
        # a verdict, not an exception from the range pass, and one that names
        # the lengths rather than a line the short zip left empty
        m = mec.min_entropy_coupling_sparse([0.5, 0.5], [1.0])
        object.__setattr__(m, "rows", ())
        assert mec.is_valid_coupling(m, [0.5, 0.5], [1.0]) == (
            False, "rows, cols and values have lengths 0, 2 and 2")

    @pytest.mark.parametrize("field", ["rows", "cols", "_values"])
    def test_an_equal_copy_gets_the_same_verdict(self, field):
        m = self.built()
        object.__setattr__(m, field, tuple(list(getattr(m, field))))
        assert mec.is_valid_coupling(m, self.P, self.Q) == (True, "ok")


class ReferencePool:
    """``MassPool`` as it stood before its bookkeeping moved onto locals:
    every total update goes through ``_accumulate``."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int]] = []
        self._sum = 0.0
        self._err = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def total(self) -> float:
        return self._sum + self._err

    def _accumulate(self, x: float) -> None:
        t = self._sum + x
        if abs(self._sum) >= abs(x):
            self._err += (self._sum - t) + x
        else:
            self._err += (x - t) + self._sum
        self._sum = t

    def push(self, mass: float, origin: int) -> None:
        if not mass > 0.0:
            raise ValueError(f"pool masses must be positive, got {mass!r}")
        heapq.heappush(self._heap, (mass, origin))
        self._accumulate(mass)

    def split(self, z: float, x: float) -> tuple[float, list[tuple[float, int]]]:
        if x > z + self.total + mec.INTERNAL_TOL:
            raise mec.InfeasibleSplitError(f"target {x!r} exceeds z plus queued total")
        taken: list[tuple[float, int]] = []
        acc = 0.0
        while self._heap and acc + self._heap[0][0] < x:
            mass, origin = heapq.heappop(self._heap)
            if mass > z + mec.INTERNAL_TOL:
                raise mec.InfeasibleSplitError(
                    f"candidate {origin} has mass {mass!r} exceeding z={z!r}")
            self._accumulate(-mass)
            taken.append((mass, origin))
            acc += mass
        z_d = x - acc
        if z_d < 0.0:
            z_d = 0.0
        if z_d > z:
            if z_d - z > mec.INTERNAL_TOL:
                raise mec.InfeasibleSplitError(f"retained piece {z_d!r} exceeds z={z!r}")
            z_d = z
        return z_d, taken

    def drain(self) -> list[tuple[float, int]]:
        out: list[tuple[float, int]] = []
        while self._heap:
            out.append(heapq.heappop(self._heap))
        self._sum = 0.0
        self._err = 0.0
        return out


def reference_prepare(p, q):
    """``_prepare`` as it stood with the role swap: the first marginal of the
    walk is the one that dominates at the last index where the sorted
    masses differ, and ``swapped`` says whether that is ``q``."""
    dp, dq, n_rows, n_cols = _pad(_checked(p), _checked(q))
    swapped = False
    for j in range(dp.n - 1, -1, -1):
        if dp.masses[j] != dq.masses[j]:
            swapped = dp.masses[j] < dq.masses[j]
            break
    if swapped:
        dp, dq = dq, dp
    return dp, dq, swapped, n_rows, n_cols


def reference_min_entropy_coupling_sparse(p, q) -> mec.SparseCoupling:
    """The sparse engine as it stood before its cells became three columns:
    one (value, row, col) tuple per cell, every drain run, the pool total
    read through ``total``, the role swap, and the cells sorted as
    (row, col, value) tuples."""
    dp, dq, swapped, n_rows, n_cols = reference_prepare(p, q)
    n = dp.n
    z = mec.glb(dp, dq).masses
    pm, qm = dp.masses, dq.masses
    q_col = ReferencePool()
    q_row = ReferencePool()
    raw: list[tuple[float, int, int]] = []
    for i in range(n - 1, -1, -1):
        zi = z[i]
        col_over = q_col.total + zi > qm[i] + mec.INTERNAL_TOL
        row_over = q_row.total + zi > pm[i] + mec.INTERNAL_TOL
        if col_over and row_over:
            raise mec.InternalError(f"both marginals overflow at index {i}; state is corrupted")
        z_d = zi
        if col_over:
            z_d, taken = q_col.split(zi, qm[i])
            if zi - z_d > 0.0:
                q_col.push(zi - z_d, i)
        else:
            taken = q_col.drain()
        for mass, fixed_row in taken:
            raw.append((mass, fixed_row, i))
        if row_over:
            z_d, taken = q_row.split(zi, pm[i])
            if zi - z_d > 0.0:
                q_row.push(zi - z_d, i)
        else:
            taken = q_row.drain()
        for mass, fixed_col in taken:
            raw.append((mass, i, fixed_col))
        if z_d > 0.0:
            raw.append((z_d, i, i))
    if len(q_col) or len(q_row):
        raise mec.InternalError("leftover queued mass after the final index")
    if swapped:
        rows, cols = dq.perm, dp.perm
        cells = [(rows[c], cols[r], value) for value, r, c in raw]
    else:
        rows, cols = dp.perm, dq.perm
        cells = [(rows[r], cols[c], value) for value, r, c in raw]
    cells.sort()
    return from_cells(n_rows, n_cols, cells)


def engine_outcome(engine, p, q):
    """The coupling's rows, columns and value bits, or the type and message
    the engine raised."""
    try:
        m = engine(p, q)
    except Exception as exc:  # noqa: BLE001 - any exception must match the reference's
        return type(exc), str(exc)
    return m.n_rows, m.n_cols, m.rows, m.cols, [v.hex() for v in m.values()]


SUB_TOL_MASSES = (3e-14, 1e-13, 2e-13, 5e-13)


@st.composite
def engine_marginals(draw) -> list[float]:
    """A shuffled marginal of 1-12 masses, tied (small multiples of one
    mass) or not, with explicit zeros and a tail of masses below the 1e-12
    internal tolerance, which a zero target lets drain into a padded line."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        weights = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0]), min_size=n, max_size=n))
    else:
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    tail = draw(st.lists(st.sampled_from(SUB_TOL_MASSES), max_size=4))
    total = math.fsum(weights) / (1.0 - math.fsum(tail))
    masses = [w / total for w in weights] + tail
    for _ in range(draw(st.integers(0, 2))):
        masses.insert(draw(st.integers(0, len(masses))), 0.0)
    return draw(st.permutations(masses))


# two sub-1e-12 tails of the 15 x 3 pair drain into padded columns 7 and 11:
# only a key built with the padded length keeps (2, 11) ahead of (3, 7)
PADDED_COLUMNS_P = [
    0.21331326181844001, 0.25765967528188355, 1e-13, 5e-13, 1e-13, 1e-13,
    0.1387701513790149, 0.1125533519774048, 5e-13, 1e-13, 2e-13,
    0.14135429184926587, 0.02276676605353393, 0.11358250163835702, 5e-13,
]
PADDED_COLUMNS_Q = [0.4614129771801556, 0.4048748450909027, 0.1337121777289417]


class TestSparseEngineMatchesTheTupleWalk:
    """The columnar walk and its two-pass cell sort give the old walk's
    cells, float bits and order, and its exceptions with their messages.
    The reference keeps the padded-column ``ValueError`` (ROADMAP item 1):
    a change that mends the defect mends the reference with it."""

    @given(engine_marginals(), engine_marginals())
    @settings(max_examples=300, deadline=None)
    def test_same_cells_or_same_exception(self, p, q):
        # both argument orders: one of them takes the role swap
        for a, b in ((p, q), (q, p)):
            assert (engine_outcome(mec.min_entropy_coupling_sparse, a, b)
                    == engine_outcome(reference_min_entropy_coupling_sparse, a, b))

    def test_padded_columns_are_reported_in_row_order(self):
        for a, b, message in ((PADDED_COLUMNS_P, PADDED_COLUMNS_Q, "entry (2, 11) outside 15 x 3"),
                              (PADDED_COLUMNS_Q, PADDED_COLUMNS_P, "entry (7, 3) outside 3 x 15")):
            want = engine_outcome(reference_min_entropy_coupling_sparse, a, b)
            assert want == (ValueError, message)
            assert engine_outcome(mec.min_entropy_coupling_sparse, a, b) == want


class TestWalkInternalErrors:
    """The sparse walk's checks of its own state, reached by a glb with one
    component moved off its true value."""

    P = [0.5, 0.3, 0.2]
    Q = [0.6, 0.25, 0.15]

    @staticmethod
    def perturb_glb(monkeypatch, k: int, delta: float) -> None:
        kernel = mec.coupling._glb

        def perturbed(pm, qm):
            z = kernel(pm, qm)
            masses = list(z.masses)
            masses[k] += delta
            return mec.Distribution(tuple(masses), z.perm)

        monkeypatch.setattr(mec.coupling, "_glb", perturbed)

    def test_both_marginals_overflow(self, monkeypatch):
        # z = (0.5, 0.3, 0.3): the last index overflows p's 0.2 and q's 0.15
        self.perturb_glb(monkeypatch, -1, 0.1)
        with pytest.raises(mec.InternalError) as info:
            mec.min_entropy_coupling_sparse(self.P, self.Q)
        assert str(info.value) == "both marginals overflow at index 2; state is corrupted"

    def test_a_row_that_neither_overflows_nor_balances(self, monkeypatch):
        # z = (0.5, 0.3, 0.18): column 2 overflows q's 0.15, row 2 falls
        # short of p's 0.2
        self.perturb_glb(monkeypatch, -1, -0.02)
        with pytest.raises(mec.InternalError) as info:
            mec.min_entropy_coupling_sparse(self.P, self.Q, debug=True)
        assert str(info.value) == "row 2 neither overflows nor balances"

    def test_a_column_that_neither_overflows_nor_balances(self, monkeypatch):
        # the transpose: row 2 overflows, column 2 falls short
        self.perturb_glb(monkeypatch, -1, -0.02)
        with pytest.raises(mec.InternalError) as info:
            mec.min_entropy_coupling_sparse(self.Q, self.P, debug=True)
        assert str(info.value) == "column 2 neither overflows nor balances"


class TestSplitConservationCheck:
    """With ``debug`` on, the walk regroups its raw cells by glb component:
    each component must end whole, or in the two pieces of its one split.
    Raw cells of a real walk, doctored one way at a time, must fail it,
    where ``is_valid_coupling`` at its default tolerance need not."""

    @staticmethod
    def walked(monkeypatch, p, q):
        # the arguments of the walk's split check, as a debug walk passes them
        seen = []
        check = coupling._verify_split_conservation
        monkeypatch.setattr(coupling, "_verify_split_conservation",
                            lambda *args: seen.append(args) or check(*args))
        cells = _walk(_checked(p), _checked(q), debug=True)[0]
        (vals, wr, wc, z, splits), = seen
        assert vals is cells[0]
        return cells, z, splits

    @staticmethod
    def still_valid(cells, vals, wr, wc, p, q) -> bool:
        # the doctored cells, built and validated as the engine's output
        m = _finish(list(vals), list(wr), list(wc), *cells[3:])
        return mec.is_valid_coupling(m, p, q)[0]

    def test_a_dropped_sub_tolerance_piece(self, monkeypatch):
        p = q = [0.5, 0.5 - 1e-13, 1e-13]
        cells, z, splits = self.walked(monkeypatch, p, q)
        vals, wr, wc = cells[:3]
        k = vals.index(min(vals))
        assert 0.0 < vals[k] < 1e-12
        vals, wr, wc = (column[:k] + column[k + 1:] for column in (vals, wr, wc))
        assert self.still_valid(cells, vals, wr, wc, p, q)
        with pytest.raises(mec.InternalError, match=r"^component 2 pieces \[\] do not match"):
            coupling._verify_split_conservation(vals, wr, wc, z, splits)

    def test_a_piece_one_ulp_heavier(self, monkeypatch):
        cells, z, splits = self.walked(monkeypatch, WORKED_P, WORKED_Q)
        vals, wr, wc = (list(column) for column in cells[:3])
        assert splits
        # a piece of a split component
        k = next(k for k, (r, c) in enumerate(zip(wr, wc)) if max(r, c) in splits)
        vals[k] = math.nextafter(vals[k], math.inf)
        assert self.still_valid(cells, vals, wr, wc, WORKED_P, WORKED_Q)
        with pytest.raises(mec.InternalError, match=rf"^component {max(wr[k], wc[k])} pieces "):
            coupling._verify_split_conservation(vals, wr, wc, z, splits)

    def test_a_third_piece(self, monkeypatch):
        cells, z, splits = self.walked(monkeypatch, WORKED_P, WORKED_Q)
        vals, wr, wc = (list(column) for column in cells[:3])
        # half of a split component's piece moves to a free cell of its row,
        # left of the diagonal, where the component's cells may lie
        taken = set(zip(wr, wc))
        k, c = next((k, c) for k, (r, col) in enumerate(zip(wr, wc)) if col <= r and r in splits
                    for c in range(r) if (r, c) not in taken)
        vals[k] /= 2.0
        vals.append(vals[k])
        wr.append(wr[k])
        wc.append(c)
        with pytest.raises(mec.InternalError, match=rf"^component {wr[k]} pieces "):
            coupling._verify_split_conservation(vals, wr, wc, z, splits)

    @pytest.mark.parametrize("p, q", [(WORKED_P, WORKED_Q), ([0.5, 0.5 - 1e-13, 1e-13],) * 2])
    def test_the_cells_as_walked_pass(self, monkeypatch, p, q):
        cells, z, splits = self.walked(monkeypatch, p, q)
        coupling._verify_split_conservation(*cells[:3], z, splits)


def transposed_cells(m: mec.SparseCoupling) -> list[tuple[int, int, str]]:
    return sorted(zip(m.cols, m.rows, map(float.hex, m.values())))


class TestArgumentOrderTransposes:
    """Each engine walks rows and columns alike, so swapping the marginals
    transposes the coupling, float bits included, or both orders raise the
    padded-line ``ValueError`` (ROADMAP item 1)."""

    @pytest.mark.parametrize("engine", ENGINES, ids=ENGINE_IDS)
    @given(p=engine_marginals(), q=engine_marginals())
    @settings(max_examples=200, deadline=None)
    def test_reversed_marginals_give_the_transpose(self, engine, p, q):
        try:
            fwd = engine(p, q)
        except ValueError:
            with pytest.raises(ValueError):
                engine(q, p)
            return
        rev = engine(q, p)
        assert (rev.n_rows, rev.n_cols) == (fwd.n_cols, fwd.n_rows)
        assert list(zip(rev.rows, rev.cols, map(float.hex, rev.values()))) == transposed_cells(fwd)

    def test_swapped_arguments_transpose_the_coupling(self):
        fwd = entries_by_cell(mec.min_entropy_coupling_sparse(WORKED_P, WORKED_Q))
        rev = entries_by_cell(mec.min_entropy_coupling_sparse(WORKED_Q, WORKED_P))
        assert rev == {(c, r): v for (r, c), v in fwd.items()}

    def test_swap_on_random_pairs(self):
        rng = random.Random(73)
        for engine in ENGINES:
            for _ in range(30):
                p = random_masses(rng, rng.randint(1, 6))
                q = random_masses(rng, rng.randint(1, 6))
                fwd = entries_by_cell(engine(p, q))
                rev = entries_by_cell(engine(q, p))
                assert rev == {(c, r): v for (r, c), v in fwd.items()}


def pool_state(pool) -> tuple:
    return pool._sum.hex(), pool._err.hex(), [(mass.hex(), origin) for mass, origin in pool._heap]


POOL_OPS = st.lists(
    st.tuples(st.sampled_from(["push", "split", "drain"]), st.floats(1e-6, 1.0),
              st.floats(0.0, 2.0)),
    max_size=40,
)


class TestMassPoolMatchesTheReference:
    """The inlined compensated total is written back on every path, a
    raising split included, bit for bit as ``_accumulate`` kept it."""

    @given(POOL_OPS)
    # a split that takes 0.05 and then meets a record larger than z
    @example([("push", 0.05, 0.0), ("push", 0.5, 0.0), ("split", 0.1, 0.6), ("push", 0.3, 0.0)])
    @settings(max_examples=300, deadline=None)
    def test_same_state_after_every_operation(self, ops):
        pool, ref = MassPool(), ReferencePool()
        for origin, (op, a, b) in enumerate(ops):
            if op == "push":
                pool.push(a, origin)
                ref.push(a, origin)
            elif op == "split":
                # repr tells every float apart, as hex does
                assert repr(outcome(pool.split, a, b)) == repr(outcome(ref.split, a, b))
            else:
                assert pool.drain() == ref.drain()
            assert pool_state(pool) == pool_state(ref)
            assert pool.total.hex() == ref.total.hex()


class TestMarginalsScaledWithinTheTolerance:
    """Marginals that sum to 1 within NORMALIZATION_TOL but not within
    INTERNAL_TOL are rescaled by the engines, so every accepted pair
    couples validly at the default tolerance."""

    @staticmethod
    def scaled(rng: random.Random, n: int, factor: float) -> list[float]:
        weights = [rng.random() for _ in range(n)]
        total = math.fsum(weights)
        return [w / total * factor for w in weights]

    def test_scaled_pairs_couple_validly_in_both_engines(self):
        for seed in range(300):
            rng = random.Random(seed)
            n, m = rng.randint(1, 30), rng.randint(1, 30)
            p = self.scaled(rng, n, 1.0 + 9e-10)
            q = self.scaled(rng, m, 1.0 - 9e-10)
            sparse = mec.min_entropy_coupling_sparse(p, q)
            assert mec.is_valid_coupling(sparse, p, q) == (True, "ok"), seed
            assert engine_outcome(mec.min_entropy_coupling_dense, p, q) == engine_outcome(
                mec.min_entropy_coupling_sparse, p, q), seed

    @pytest.mark.parametrize(
        "engine", [mec.min_entropy_coupling_dense, mec.min_entropy_coupling_sparse])
    def test_a_distribution_off_by_more_than_the_tolerance_is_not_rescaled(self, engine):
        # a hand-built Distribution far from 1 reaches glb as given, which
        # rejects it, on either side
        off = mec.Distribution((0.6, 0.3), (0, 1))
        fair = mec.Distribution((0.5, 0.5), (0, 1))
        for p, q in ((off, fair), (fair, off), (off, [0.5, 0.5])):
            with pytest.raises(mec.NotNormalizedError, match=r"^masses sum to 0\.8999999999999999,"):
                engine(p, q)
        with pytest.raises(mec.NotNormalizedError):
            mec.min_entropy_joint_k([off, fair, fair])

    def test_a_distribution_within_the_internal_tolerance_is_left_alone(self):
        # off 1 by at most INTERNAL_TOL: coupled as given, bit for bit
        masses = (0.5 + 2.0**-42, 0.5)
        d = mec.Distribution(masses, (0, 1))
        m = mec.min_entropy_coupling_sparse(d, d)
        assert [v.hex() for v in m.values()] == [x.hex() for x in masses]
