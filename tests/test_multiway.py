"""k-marginal joints from the merge tree, their bounds, and the joint types."""

from __future__ import annotations

import math
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

    def test_unhashable_coordinates_are_a_type_error(self):
        # the walk's set of seen coordinates rejects a list, sorted or not
        for cells in ([(0.5, (0, 0)), (0.5, [0, 1])], [(0.5, [0, 1]), (0.5, (0, 0))]):
            entries = tuple(mec.JointEntry(v, c) for v, c in cells)
            with pytest.raises(TypeError, match="unhashable"):
                mec.SparseJoint((2, 2), entries)

    def test_accepts_valid_entries_in_any_order(self):
        cells = [(0.5, (1, 1)), (0.25, (0, 1)), (0.25, (0, 0))]
        for order in (cells, sorted(cells, key=lambda cell: cell[1])):
            entries = tuple(mec.JointEntry(v, c) for v, c in order)
            assert mec.SparseJoint((2, 2), entries).entries == entries
        assert mec.SparseJoint((2, 2), ()).values() == ()


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
