"""k-marginal joints from the merge tree, their bounds, and the joint types."""

from __future__ import annotations

import copy
import math
import pickle
import random

import pytest

import mec
from conftest import WORKED_P, WORKED_Q, random_masses


def joint_cells(j: mec.SparseJoint) -> dict[tuple[int, ...], float]:
    return {e.coords: e.value for e in j.entries}


class TestSparseJointType:
    def test_rejects_non_positive_value(self):
        with pytest.raises(ValueError):
            mec.SparseJoint((2, 2), (mec.JointEntry(0.0, (0, 0)),))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            mec.SparseJoint((2, 2), (mec.JointEntry(1.0, (0, 0, 0)),))

    def test_rejects_out_of_range_axis(self):
        with pytest.raises(ValueError):
            mec.SparseJoint((2, 2), (mec.JointEntry(1.0, (0, 2)),))

    def test_rejects_duplicate_coords(self):
        entries = (mec.JointEntry(0.5, (0, 0)), mec.JointEntry(0.5, (0, 0)))
        with pytest.raises(ValueError):
            mec.SparseJoint((2, 2), entries)

    def test_value_semantics(self):
        rng = random.Random(141)
        j = mec.min_entropy_joint_k([random_masses(rng, 4) for _ in range(3)])
        rebuilt = mec.SparseJoint(j.dims, tuple(j.entries))
        assert rebuilt == j and hash(rebuilt) == hash(j)
        assert j != mec.SparseJoint(j.dims + (1,), tuple(
            mec.JointEntry(e.value, e.coords + (0,)) for e in j.entries))
        assert j != mec.SparseJoint(j.dims, j.entries[::-1])
        assert repr(j) == f"SparseJoint(dims={j.dims!r}, entries={j.entries!r})"
        assert repr(mec.SparseJoint((2, 1), (mec.JointEntry(1.0, (1, 0)),))) == (
            "SparseJoint(dims=(2, 1), entries=(JointEntry(value=1.0, coords=(1, 0)),))"
        )
        for copied in (pickle.loads(pickle.dumps(j)), copy.copy(j), copy.deepcopy(j)):
            assert copied == j and copied.values() == j.values()
            assert copied.entries == j.entries
        with pytest.raises(AttributeError):
            j.dims = (1,)
        with pytest.raises(AttributeError):
            del j.dims


class TestSparseJointColumns:
    """One index column per axis and a values tuple; the records are built
    from them on each access."""

    def test_columns_hold_the_entries(self):
        cells = [(0.5, (1, 1, 0)), (0.25, (0, 1, 2)), (0.25, (0, 0, 1))]
        j = mec.SparseJoint((2, 2, 3), [mec.JointEntry(v, c) for v, c in cells])
        assert j.columns == ((1, 0, 0), (1, 1, 0), (0, 2, 1))
        assert j.values() == (0.5, 0.25, 0.25)
        assert j.entries == tuple(mec.JointEntry(v, c) for v, c in cells)
        assert j.entries is not j.entries

    def test_engine_output_equals_the_public_constructor(self):
        rng = random.Random(143)
        for k in range(2, 8):
            j = mec.min_entropy_joint_k([random_masses(rng, rng.randint(1, 6)) for _ in range(k)])
            assert len(j.columns) == k
            assert all(len(column) == len(j.values()) for column in j.columns)
            rebuilt = mec.SparseJoint(j.dims, j.entries)
            assert rebuilt == j and rebuilt.columns == j.columns

    def test_coordinates_that_are_not_tuples_are_read_as_tuples(self):
        # a hashable sequence with one index per axis is accepted, as before,
        # and named as given when it is out of range
        with pytest.raises(ValueError, match=r"^entry range\(1, 3\) out of range on axis 1$"):
            mec.SparseJoint((2, 2), [mec.JointEntry(1.0, range(1, 3))])
        j = mec.SparseJoint((2, 3), [mec.JointEntry(1.0, range(1, 3))])
        assert j.entries == (mec.JointEntry(1.0, (1, 2)),)


class TestSparseJointChecks:
    """The constructor's C-level passes and its entry walk reject the same
    entries with the same messages, whether the entries arrive sorted by
    coordinates, as the engine emits them, or not."""

    GOOD = [(0.25, (0, 0)), (0.25, (0, 1))]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((0.0, (1, 0)), "entry (1, 0) must be positive, got 0.0"),
            ((-0.5, (1, 0)), "entry (1, 0) must be positive, got -0.5"),
            ((math.nan, (1, 0)), "entry (1, 0) must be finite, got nan"),
            ((math.inf, (1, 0)), "entry (1, 0) must be finite, got inf"),
            ((0.5, (1, 0, 0)), "entry (1, 0, 0) does not have 2 coordinates"),
            ((0.5, (1,)), "entry (1,) does not have 2 coordinates"),
            ((0.5, (2, 0)), "entry (2, 0) out of range on axis 0"),
            ((0.5, (1, 2)), "entry (1, 2) out of range on axis 1"),
            ((0.5, (1, -1)), "entry (1, -1) out of range on axis 1"),
            # a NaN is unequal to everything, so it is neither in range nor
            # ordered; min and max would pass it
            ((0.5, (math.nan, 0)), "entry (nan, 0) out of range on axis 0"),
            ((0.5, (1, math.nan)), "entry (1, nan) out of range on axis 1"),
            ((0.5, (0, 1)), "duplicate entry at (0, 1)"),
        ],
        ids=["zero", "negative", "nan-value", "inf-value", "long-coords", "short-coords",
             "axis-0", "axis-1", "negative-axis-1", "nan-axis-0", "nan-axis-1", "duplicate"],
    )
    @pytest.mark.parametrize("order", ["sorted", "unsorted"])
    def test_rejects_a_bad_entry(self, bad, message, order):
        # sorted: the bad entry comes last, after the good ones it does not
        # precede; unsorted: it comes first, so a repeat is not adjacent
        cells = self.GOOD + [bad] if order == "sorted" else [bad] + self.GOOD[::-1]
        entries = tuple(mec.JointEntry(v, c) for v, c in cells)
        with pytest.raises(ValueError) as exc:
            mec.SparseJoint((2, 2), entries)
        assert str(exc.value) == message

    def test_names_the_first_bad_entry(self):
        entries = tuple(mec.JointEntry(v, c) for v, c in [
            (0.25, (0, 0)), (0.25, (0, 0)), (-1.0, (0, 5)),
        ])
        with pytest.raises(ValueError, match=r"^duplicate entry at \(0, 0\)$"):
            mec.SparseJoint((2, 2), entries)

    @pytest.mark.parametrize(
        "cells, message",
        [
            # an entry of the wrong arity does not hide a bad entry before it
            ([(-1.0, (0, 0)), (0.5, (1, 0, 0))], "entry (0, 0) must be positive, got -1.0"),
            ([(0.5, (0, 0)), (0.5, (0, 0)), (0.5, (1,))], "duplicate entry at (0, 0)"),
            # within one entry, the value is checked before the arity
            ([(0.0, (1, 0, 0))], "entry (1, 0, 0) must be positive, got 0.0"),
            ([(0.5, (0, 0)), (math.nan, (1,))], "entry (1,) must be finite, got nan"),
            # coordinates that are not a tuple are named as given
            ([(0.5, (0, 0)), (0.5, [0, 5])], "entry [0, 5] out of range on axis 1"),
            ([(-0.5, [0, 1])], "entry [0, 1] must be positive, got -0.5"),
            ([(0.5, [0, 1, 1])], "entry [0, 1, 1] does not have 2 coordinates"),
        ],
        ids=["bad-before-long", "repeat-before-short", "value-before-arity",
             "nan-before-arity", "list-out-of-range", "list-value", "list-arity"],
    )
    def test_names_the_first_bad_entry_in_entry_order(self, cells, message):
        entries = [mec.JointEntry(v, c) for v, c in cells]
        with pytest.raises(ValueError) as exc:
            mec.SparseJoint((2, 2), entries)
        assert str(exc.value) == message

    def test_unhashable_coordinates_are_a_type_error(self):
        # a list of coordinates is rejected, sorted or not, wherever it stands
        for cells in ([(0.5, (0, 0)), (0.5, [0, 1])], [(0.5, [0, 1]), (0.5, (0, 0))],
                      [(0.5, [1, 1])], [(0.25, (0, 0)), (0.25, [0, 1]), (0.5, (1, 1))]):
            entries = tuple(mec.JointEntry(v, c) for v, c in cells)
            with pytest.raises(TypeError, match="unhashable"):
                mec.SparseJoint((2, 2), entries)

    def test_accepts_valid_entries_in_any_order(self):
        cells = [(0.5, (1, 1)), (0.25, (0, 1)), (0.25, (0, 0))]
        for order in (cells, sorted(cells, key=lambda cell: cell[1])):
            entries = tuple(mec.JointEntry(v, c) for v, c in order)
            assert mec.SparseJoint((2, 2), entries).entries == entries
        assert mec.SparseJoint((2, 2), ()).values() == ()

    def test_no_entries(self):
        j = mec.SparseJoint((2, 3), ())
        assert j.entries == () and j.values() == ()
        assert j.columns == ((), ())
        assert mec.axis_marginals(j) == ((0.0, 0.0), (0.0, 0.0, 0.0))
        assert j == mec.SparseJoint((2, 3), [])


class TestAxisMarginals:
    def test_small_known_joint(self):
        j = mec.SparseJoint(
            (2, 2),
            (
                mec.JointEntry(0.25, (0, 0)),
                mec.JointEntry(0.25, (0, 1)),
                mec.JointEntry(0.5, (1, 1)),
            ),
        )
        assert mec.axis_marginals(j) == ((0.5, 0.5), (0.25, 0.75))

    def test_unreached_index_sums_to_zero(self):
        j = mec.SparseJoint((3, 1), (mec.JointEntry(1.0, (1, 0)),))
        assert mec.axis_marginals(j) == ((0.0, 1.0, 0.0), (1.0,))


class TestMinEntropyJointK:
    def test_rejects_empty_list(self):
        with pytest.raises(mec.EmptyError):
            mec.min_entropy_joint_k([])

    def test_rejects_single_marginal(self):
        with pytest.raises(mec.TooFewError):
            mec.min_entropy_joint_k([WORKED_P])

    def test_two_marginals_match_the_pairwise_engine(self):
        j = mec.min_entropy_joint_k([WORKED_P, WORKED_Q])
        m = mec.min_entropy_coupling_sparse(WORKED_P, WORKED_Q)
        assert j.dims == (m.n_rows, m.n_cols)
        assert joint_cells(j) == {(e.row, e.col): e.value for e in m.entries}

    def test_three_identical_fair_coins_share_one_coin(self):
        j = mec.min_entropy_joint_k([[0.5, 0.5]] * 3, debug=True)
        assert j.dims == (2, 2, 2)
        assert joint_cells(j) == {(0, 0, 0): 0.5, (1, 1, 1): 0.5}
        assert mec.shannon_entropy(j.values()) == pytest.approx(1.0, abs=1e-12)

    def test_explicit_zero_components_keep_their_axis_length(self):
        p = [0.5, 0.0, 0.5]
        q = [1.0, 0.0]
        j = mec.min_entropy_joint_k([p, q, p], debug=True)
        assert j.dims == (3, 2, 3)
        marg = mec.axis_marginals(j)
        for got, want in zip(marg, (p, q, p)):
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-9)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_random_marginals_couple_within_the_level_budget(self, k):
        rng = random.Random(100 + k)
        kappa = (k - 1).bit_length()
        for _ in range(25):
            ds = [random_masses(rng, rng.randint(1, 5)) for _ in range(k)]
            j = mec.min_entropy_joint_k(ds, debug=True)
            assert j.dims == tuple(len(d) for d in ds)
            for got, want in zip(mec.axis_marginals(j), ds):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g == pytest.approx(w, abs=1e-9)
            h = mec.shannon_entropy(j.values())
            floor = mec.joint_lower_bound_k(ds)
            assert floor - 1e-9 <= h <= floor + kappa + 1e-9
            assert h <= mec.frl_bounds(ds).upper + 1e-9
            assert len(j.entries) <= (2**kappa) * max(j.dims)

    def test_deterministic_across_runs(self):
        rng = random.Random(131)
        ds = [random_masses(rng, 4) for _ in range(5)]
        assert mec.min_entropy_joint_k(ds).entries == mec.min_entropy_joint_k(ds).entries

    def test_entries_sorted_by_coordinates(self):
        rng = random.Random(137)
        ds = [random_masses(rng, 4) for _ in range(3)]
        coords = [e.coords for e in mec.min_entropy_joint_k(ds).entries]
        assert coords == sorted(coords)

    def test_total_mass_is_one(self):
        rng = random.Random(139)
        ds = [random_masses(rng, rng.randint(2, 5)) for _ in range(4)]
        j = mec.min_entropy_joint_k(ds)
        assert math.fsum(j.values()) == pytest.approx(1.0, abs=1e-9)


class TestJointLowerBoundK:
    def test_matches_glb_entropy(self):
        want = mec.shannon_entropy(mec.glb(WORKED_P, WORKED_Q).masses)
        assert mec.joint_lower_bound_k([WORKED_P, WORKED_Q]) == pytest.approx(
            want, abs=1e-12
        )

    def test_identical_marginals_floor_at_their_entropy(self):
        assert mec.joint_lower_bound_k([WORKED_P] * 4) == pytest.approx(
            mec.shannon_entropy(WORKED_P), abs=1e-9
        )

    def test_no_coupling_beats_the_floor(self):
        rng = random.Random(149)
        for k in (2, 3, 4):
            ds = [random_masses(rng, rng.randint(1, 4)) for _ in range(k)]
            h = mec.shannon_entropy(mec.min_entropy_joint_k(ds).values())
            assert h >= mec.joint_lower_bound_k(ds) - 1e-9


class TestFrlBounds:
    def test_single_conditional_needs_no_extra_bits(self):
        b = mec.frl_bounds([WORKED_P])
        assert b.lower == b.upper
        assert b.lower == pytest.approx(mec.shannon_entropy(WORKED_P), abs=1e-9)

    def test_window_width_is_the_level_count(self):
        b = mec.frl_bounds([WORKED_P, WORKED_Q, WORKED_P, WORKED_Q])
        assert b.upper == b.lower + 2.0

    def test_identical_conditionals_floor_at_one_law(self):
        b = mec.frl_bounds([WORKED_Q] * 3)
        assert b.lower == pytest.approx(mec.shannon_entropy(WORKED_Q), abs=1e-9)
        assert b.upper == pytest.approx(b.lower + 2.0, abs=1e-12)

    def test_rejects_empty_list(self):
        with pytest.raises(mec.EmptyError):
            mec.frl_bounds([])

    def test_tree_entropy_lands_inside_the_window(self):
        rng = random.Random(151)
        for k in (2, 3, 5):
            ds = [random_masses(rng, rng.randint(2, 4)) for _ in range(k)]
            b = mec.frl_bounds(ds)
            h = mec.shannon_entropy(mec.min_entropy_joint_k(ds).values())
            assert b.lower - 1e-9 <= h <= b.upper + 1e-9


def test_scaled_marginals_keep_their_axis_marginals():
    # marginals off 1 by up to 9e-10, within the default tolerance, are
    # rescaled once at the leaves: the root's axis marginals stay within it,
    # and every merge meets its debug witness, which is built from the same
    # rescaled leaves
    for seed in range(60):
        rng = random.Random(seed)
        ds = []
        for _ in range(rng.randint(2, 7)):
            weights = [rng.random() for _ in range(rng.randint(1, 30))]
            factor = 1.0 + rng.choice((-9e-10, 9e-10))
            total = math.fsum(weights)
            ds.append([w / total * factor for w in weights])
        j = mec.min_entropy_joint_k(ds, debug=True)
        assert j == mec.min_entropy_joint_k(ds), seed
        for got, want in zip(mec.axis_marginals(j), ds):
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9, seed
