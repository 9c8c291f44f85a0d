"""k-marginal joints from the merge tree, their bounds, and the joint types."""

from __future__ import annotations

import copy
import math
import operator
import pickle
import random
import re
from bisect import bisect_left

import pytest

import mec
from mec import coupling, multiway, reports
from mec.coupling import _finish, _unit, _walk
from mec.distributions import _checked, _sorted_distribution
from mec.majorization import HALF_COMPONENT_CAP
from conftest import (
    WORKED_P,
    WORKED_Q,
    copied_cells,
    geometric_masses,
    grid64_masses,
    random_masses,
    zero_padded_masses,
)


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


def first_bad_entry_message(dims, cells) -> str | None:
    """The constructor's message for the first bad (value, coords) cell, in
    the order given, by a check of one cell at a time; an index that is not
    an int is out of range."""
    seen = set()
    for value, coords in cells:
        if value <= 0.0:
            return f"entry {coords} must be positive, got {value!r}"
        if not math.isfinite(value):
            return f"entry {coords} must be finite, got {value!r}"
        for axis, (i, n) in enumerate(zip(coords, dims)):
            if not (type(i) is int and 0 <= i < n):
                return f"entry {coords} out of range on axis {axis}"
        if coords in seen:
            return f"duplicate entry at {coords}"
        seen.add(coords)
    return None


def bad_entries(rng: random.Random, kind: str, cells, dims):
    """Two bad cells of one kind for a joint holding ``cells``."""
    taken = {coords for _, coords in cells}
    free = []
    while len(free) < 2:
        coords = tuple(rng.randrange(n) for n in dims)
        if coords not in taken and coords not in free:
            free.append(coords)
    a, b = free
    if kind == "non-positive":
        return [(0.0, a), (-0.25, b)]
    if kind in ("nan", "inf"):
        value = math.nan if kind == "nan" else math.inf
        return [(value, a), (value, b)]
    if kind == "range":
        return [(0.125, a[:1] + (dims[1],) + a[2:]), (0.125, (-1,) + b[1:])]
    if kind == "duplicate":
        return [(0.125, coords) for _, coords in rng.sample(cells, 2)]
    return [(0.125, (float(a[0]),) + a[1:]), (0.125, b[:-1] + (b[-1] + 0.5,))]


class TestOneCheckedBuild:
    """Joints are built through ``_CellStore._fill``, as couplings are: the
    public constructor clears cells in any order by C-level passes, and any
    input with a bad cell names the first one in the order given."""

    def test_a_shuffled_joint_is_never_walked(self, monkeypatch):
        rng = random.Random(2700)
        j = mec.min_entropy_joint_k([random_masses(rng, n) for n in (3000, 5000, 4000)])
        entries = list(j.entries)
        assert len(entries) >= 10_000
        rng.shuffle(entries)
        walks = []
        walk = coupling._bad_cell_walk
        monkeypatch.setattr(coupling, "_bad_cell_walk",
                            lambda *args: walks.append(1) or walk(*args))
        rebuilt = mec.SparseJoint(j.dims, entries)
        assert walks == []
        assert set(rebuilt.entries) == set(j.entries)
        entries.append(mec.JointEntry(0.5, entries[0].coords))
        with pytest.raises(ValueError, match="^duplicate entry at "):
            mec.SparseJoint(j.dims, entries)
        assert walks == [1]

    @pytest.mark.parametrize(
        "kind", ["non-positive", "nan", "inf", "range", "duplicate", "non-integer"])
    def test_shuffled_input_names_the_first_bad_cell(self, kind):
        rng = random.Random(f"joint-{kind}")
        for _ in range(40):
            j = mec.min_entropy_joint_k([random_masses(rng, rng.randint(3, 6)) for _ in range(3)])
            good = [(e.value, e.coords) for e in j.entries]
            cells = good + bad_entries(rng, kind, good, j.dims)
            rng.shuffle(cells)
            message = first_bad_entry_message(j.dims, cells)
            assert message is not None
            with pytest.raises(ValueError) as exc:
                mec.SparseJoint(j.dims, [mec.JointEntry(v, c) for v, c in cells])
            assert str(exc.value) == message

    @pytest.mark.parametrize(
        "coords, message",
        [
            ((1.0, 0), "entry (1.0, 0) out of range on axis 0"),
            ((0.5, 0), "entry (0.5, 0) out of range on axis 0"),
            ((1, 0.0), "entry (1, 0.0) out of range on axis 1"),
            ([1, 0.0], "entry [1, 0.0] out of range on axis 1"),
        ],
        ids=["float", "fractional", "float-axis-1", "list"],
    )
    def test_rejects_an_index_that_is_not_an_integer(self, coords, message):
        entries = [mec.JointEntry(0.5, (0, 0)), mec.JointEntry(0.5, coords)]
        with pytest.raises(ValueError) as exc:
            mec.SparseJoint((2, 1), entries)
        assert str(exc.value) == message

    def test_bool_and_integer_indices_pass(self):
        class Index(int):
            pass

        j = mec.SparseJoint((2, 1), [mec.JointEntry(0.5, (False, 0)),
                                     mec.JointEntry(0.5, (Index(1), False))])
        assert j.columns == ((False, 1), (0, False))
        assert mec.axis_marginals(j) == ((0.5, 0.5), (1.0,))


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
    # every merge passes its walk's debug checks, and the root meets its
    # witness, which is built from the same rescaled leaves
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


def reference_min_entropy_joint_k(ds) -> mec.SparseJoint:
    """``min_entropy_joint_k`` as it stood when every merge built a
    ``SparseCoupling``: tuple tags, one walk and one ``_finish`` per merge,
    a lambda sort by (-mass, tag) for every node but the root, and the
    root's tags sorted once and transposed."""
    if len(ds) == 0:
        raise mec.EmptyError("no distributions to couple")
    if len(ds) == 1:
        raise mec.TooFewError("coupling requires at least two distributions")
    dists = [_unit(_checked(d)) for d in ds]
    dims = tuple(d.n for d in dists)

    def leaf(d):
        k = bisect_left(d.masses, 0.0, key=operator.neg)
        return d.masses[:k], tuple(zip(d.perm[:k]))

    def couple(left, right):
        (left_masses, left_tags), (right_masses, right_tags) = left, right
        dl = _sorted_distribution(left_masses, tuple(range(len(left_masses))))
        dr = _sorted_distribution(right_masses, tuple(range(len(right_masses))))
        m = _finish(*_walk(dl, dr)[0])
        tags = list(map(operator.add, map(left_tags.__getitem__, m.rows),
                        map(right_tags.__getitem__, m.cols)))
        return m.values(), tags

    def by_mass(node):
        pairs = sorted(zip(*node), key=lambda t: (-t[0], t[1]))
        return tuple(v for v, _ in pairs), tuple(tag for _, tag in pairs)

    nodes = [leaf(d) for d in dists]
    while True:
        cells = [couple(nodes[t], nodes[t + 1]) for t in range(0, len(nodes) - 1, 2)]
        rest = slice(2 * len(cells), None)
        if len(nodes) == 2:
            break
        nodes = list(map(by_mass, cells)) + nodes[rest]
    values, tags = cells[0]
    order = sorted(range(len(tags)), key=tags.__getitem__)
    return mec.SparseJoint(dims, [mec.JointEntry(values[t], tags[t]) for t in order])


def joint_outcome(build, ds):
    """The joint's dims, columns and value bits, or the type and message
    ``build`` raised."""
    try:
        j = build(ds)
    except Exception as exc:  # noqa: BLE001 - any exception must match the reference's
        return type(exc), str(exc)
    return j.dims, j.columns, [v.hex() for v in j.values()]


# masses below the 1e-12 internal tolerance, which a zero target lets drain
# into a padded line: the padded-column ValueError of ROADMAP item 1
SUB_TOL_MASSES = (3e-14, 1e-13, 2e-13, 5e-13)


def sub_tol_tail_masses(rng: random.Random, n: int) -> list[float]:
    """``random_masses`` of n components, then up to three sub-1e-12 ones."""
    tail = [rng.choice(SUB_TOL_MASSES) for _ in range(rng.randint(1, 3))]
    head = random_masses(rng, n)
    scale = 1.0 - math.fsum(tail)
    return [x * scale for x in head] + tail


MARGINAL_FAMILIES = {
    "random": random_masses,
    "zeros": lambda rng, n: zero_padded_masses(rng, n, rng.randint(1, 3)),
    # multiples of 1/64: merged masses tie, so _by_mass breaks ties by tag
    "grid64": lambda rng, n: grid64_masses(rng, min(n, 40)),
    "geometric": geometric_masses,
    "tail": sub_tol_tail_masses,
}


def bench_family(rng: random.Random, name: str, n: int) -> list[float]:
    """The four mass families of the k-way benchmark, normalized."""
    if name == "uniform":
        values = [rng.random() for _ in range(n)]
    elif name == "zipf":
        values = [(k + 1) ** -1.1 for k in range(n)]
        rng.shuffle(values)
    elif name == "geometric":
        values = [math.exp(-50.0 * k / n) for k in range(n)]
        rng.shuffle(values)
    else:
        values = [1.0 + 0.01 * rng.random() for _ in range(n)]
    total = math.fsum(values)
    return [x / total for x in values]


class TestMergeTreeMatchesTheReference:
    """Merges that read the walk's raw cells and carry tags as index
    columns give the joint of a tree whose every merge built a
    ``SparseCoupling``: the same columns, float bits and order, or the same
    exception and message."""

    @pytest.mark.parametrize("k", range(2, 8))
    def test_same_joint_or_same_exception(self, k, monkeypatch):
        # count _by_mass's tie-breaks: one per non-root node whose masses tie
        tie_sorts = []
        cell_order = multiway._cell_order
        monkeypatch.setattr(multiway, "_cell_order",
                            lambda *args: tie_sorts.append(1) or cell_order(*args))
        rng = random.Random(2000 + k)
        joints = raised = 0
        for t in range(60):
            # every fourth instance may draw the families with tiny tails,
            # on which most trees raise
            families = sorted(MARGINAL_FAMILIES) if t % 4 == 0 else ["grid64", "random", "zeros"]
            names = [rng.choice(families) for _ in range(k)]
            ds = [MARGINAL_FAMILIES[name](rng, rng.randint(1, 30)) for name in names]
            want = joint_outcome(reference_min_entropy_joint_k, ds)
            assert joint_outcome(mec.min_entropy_joint_k, ds) == want, names
            joints += want[0] is not ValueError
            raised += want[0] is ValueError
        # both paths ran: joints, and the padded-column ValueError
        assert joints and raised
        # only non-root nodes are sorted by mass, so ties are broken at k > 2
        assert bool(tie_sorts) == (k > 2)

    def test_bench_scale_marginals(self):
        rng = random.Random(2100)
        for names in (("uniform", "zipf", "geometric", "flat"),
                      ("flat", "uniform", "zipf", "geometric")):
            ds = [bench_family(rng, name, n)
                  for name, n in zip(names, (5_000, 20_000, 10_000, 15_000))]
            assert (joint_outcome(mec.min_entropy_joint_k, ds)
                    == joint_outcome(reference_min_entropy_joint_k, ds))


class TestTagOrder:
    """``coupling._cell_order`` orders cells as a sort of their index tuples
    does, repeats in the order given; ``_by_mass`` breaks tied masses by that
    order, and ``_build`` stores the engines' cells in it."""

    @pytest.mark.parametrize("axes", [2, 3, 5, 12])
    def test_same_order_as_a_sort_of_the_tuples(self, axes):
        rng = random.Random(axes)
        # a column of zeros (radix 1), small radices and large ones
        tops = [(1, 3, 50, 10**6)[a % 4] for a in range(axes)]
        tags = list({tuple(rng.randrange(top) for top in tops) for _ in range(500)})
        rng.shuffle(tags)
        columns = tuple(map(list, zip(*tags)))
        if axes == 12:
            # no mixed-radix code of these tags fits in 64 bits
            assert math.prod(max(column) + 1 for column in columns) > 2**64
        assert coupling._cell_order(columns, len(tags)) == sorted(
            range(len(tags)), key=tags.__getitem__)
        masses = [rng.choice((0.5, 0.25, 0.125)) for _ in tags]
        pairs = sorted(zip(masses, tags), key=lambda t: (-t[0], t[1]))
        assert multiway._by_mass((masses, columns)) == (
            tuple(v for v, _ in pairs), tuple(zip(*(tag for _, tag in pairs))))

    @pytest.mark.parametrize("axes", [1, 2, 4])
    def test_repeated_cells_keep_the_order_given(self, axes):
        # shuffled cells, some copied up to three times: they come out in
        # tuple order and the copies in input order, so that _fill names the
        # first copy given
        rng = random.Random(100 + axes)
        distinct = [tuple(rng.randrange(4) for _ in range(axes)) for _ in range(60)]
        cells = [cell for cell in distinct for _ in range(rng.randint(1, 3))]
        rng.shuffle(cells)
        order = coupling._cell_order(tuple(zip(*cells)), len(cells))
        assert order == sorted(range(len(cells)), key=lambda k: (cells[k], k))

    @pytest.mark.parametrize("store", [mec.SparseCoupling, mec.SparseJoint])
    def test_build_empties_its_lists_and_leaves_tuples_alone(self, store):
        rows, cols = [2, 0, 1, 0], (0, 1, 1, 0)
        values = [0.25, 0.125, 0.5, 0.0625]
        built = store._build((3, 2), (rows, cols), values)
        assert rows == values == [] and cols == (0, 1, 1, 0)
        columns = (built.rows, built.cols) if store is mec.SparseCoupling else built.columns
        assert columns == ((0, 0, 1, 2), (0, 1, 1, 0))
        assert built.values() == (0.0625, 0.125, 0.5, 0.25)

    def test_build_names_the_first_copy_of_a_repeat(self):
        # two copies of cell (1, 0), each bad in its own way: the check walks
        # them in the order given and names the first
        rows, cols = [1, 0, 1, 0], [0, 1, 0, 0]
        values = [math.inf, 0.25, -1.0, 0.375]
        with pytest.raises(ValueError, match=r"^entry \(1, 0\) must be finite, got inf$"):
            mec.SparseCoupling._build((2, 2), (rows, cols), values)
        assert rows == cols == values == []


def debug_instances(seed: int, count: int = 30) -> list:
    """Seeded lists of 2-7 marginals, each with its outcome (``joint_outcome``)
    with debug off."""
    rng = random.Random(seed)
    instances = []
    for t in range(count):
        names = [rng.choice(["geometric", "grid64", "random"]) for _ in range(2 + t % 6)]
        ds = [MARGINAL_FAMILIES[name](rng, rng.randint(2, 30)) for name in names]
        instances.append((ds, joint_outcome(mec.min_entropy_joint_k, ds)))
    return instances


def debug_outcome(ds):
    return joint_outcome(lambda ds: mec.min_entropy_joint_k(ds, debug=True), ds)


class TestDebugChecks:
    """With ``debug`` on, every merge's walk runs the sparse engine's checks,
    a merged node must still sum to 1 when it is coupled again, and the root
    meets the witness of the ceil(log2 k) bound: the glb of the leaves,
    halved once per level."""

    @staticmethod
    def caught(instances) -> int:
        # the number of runs, debug on, that the split check stops. Every
        # other run ends as it does with neither the mutant nor debug: the
        # mutant never ran, or a merge before it raised the padded-column
        # ValueError of ROADMAP item 1
        caught = 0
        for ds, want in instances:
            got = debug_outcome(ds)
            if got[0] is mec.InternalError and re.match(r"component \d+ pieces ", got[1]):
                caught += 1
            else:
                assert got == want
        return caught

    def test_the_instances_pass_every_check(self):
        # both outcomes occur: joints, and the padded-column ValueError
        instances = debug_instances(2300)
        for ds, want in instances:
            assert debug_outcome(ds) == want
        assert {want[0] is ValueError for _, want in instances} == {False, True}

    def test_pieces_drained_one_ulp_heavier(self, monkeypatch):
        instances = debug_instances(2300)
        drain = coupling.MassPool.drain
        monkeypatch.setattr(coupling.MassPool, "drain", lambda pool: [
            (math.nextafter(mass, math.inf), origin) for mass, origin in drain(pool)])
        assert self.caught(instances) == len(instances)

    def test_taken_pieces_a_little_heavier(self, monkeypatch):
        instances = debug_instances(2300)
        split = coupling.MassPool.split

        def heavier(pool, z, x):
            z_d, taken = split(pool, z, x)
            return z_d, [(mass * (1.0 + 1e-11), origin) for mass, origin in taken]

        monkeypatch.setattr(coupling.MassPool, "split", heavier)
        assert self.caught(instances) >= 25

    @pytest.mark.parametrize("node", ["root", "inner"])
    def test_a_halved_smallest_cell(self, monkeypatch, node):
        # the smallest cell, 1e-10, is halved: the root's total falls short
        # of the witness's by more than its 1e-12 slack, and an inner node's
        # would be rescaled by the next walk, unseen by the witness
        ds = [[0.5, 0.5 - 1e-10, 1e-10]] * 3
        couple = multiway._couple

        def halved(*nodes):
            values, columns = couple(*nodes)
            if (len(columns) == len(ds)) == (node == "root"):
                values = list(values)
                values[values.index(min(values))] /= 2.0
            return values, columns

        monkeypatch.setattr(multiway, "_couple", halved)
        mec.min_entropy_joint_k(ds)  # unseen with debug off
        with pytest.raises(mec.InternalError) as exc:
            mec.min_entropy_joint_k(ds, debug=True)
        assert str(exc.value) == ("the joint violates its majorization witness" if node == "root"
                                  else "a node's masses do not sum to 1")

    def test_a_root_short_of_the_normalization_tolerance(self, monkeypatch):
        # a root that lost 0.05 of mass, which majorizes would refuse as a
        # marginal that is not normalized: a broken walk, not an input error
        ds = [[0.5, 0.4, 0.1]] * 3
        couple = multiway._couple

        def halved(*nodes):
            values, columns = couple(*nodes)
            if len(columns) == len(ds):
                values = list(values)
                values[values.index(min(values))] /= 2.0
            return values, columns

        monkeypatch.setattr(multiway, "_couple", halved)
        mec.min_entropy_joint_k(ds)  # unseen with debug off
        with pytest.raises(mec.InternalError, match="^the root's masses do not sum to 1$"):
            mec.min_entropy_joint_k(ds, debug=True)

    def test_a_witness_past_the_half_cap(self):
        # uniform marginals couple on the diagonal, the cheapest joint whose
        # witness, 4n masses, exceeds half_iter's cap
        n = HALF_COMPONENT_CAP // 4 + 1
        j = mec.min_entropy_joint_k([[1.0 / n] * n] * 3, debug=True)
        assert j.columns == (tuple(range(n)),) * 3


def skewed_vs_flat_pair() -> tuple[list[float], list[float]]:
    """A 38 x 7 pair on which the walk emits a cell in a padded column:
    sub-1e-12 mass of the skewed marginal drains into a zero target."""
    r = random.Random(6)
    n1 = r.randint(2, 40)
    n2 = r.randint(2, n1)
    p = [r.random() ** 4 for _ in range(n1)]
    q = [1 + 0.01 * r.random() for _ in range(n2)]
    sp, sq = math.fsum(p), math.fsum(q)
    return [x / sp for x in p], [x / sq for x in q]


def corrupted(kind: str, cells):
    """The walk's raw cells with one bad cell of the given kind."""
    vals, wr, wc, dp, dq, n_rows, n_cols = cells
    vals, wr, wc = list(vals), list(wr), list(wc)
    if kind == "zero":
        vals[-1] = 0.0
    elif kind == "nan":
        vals[-1] = math.nan
    elif kind == "range":
        # the first padded column: the rows outnumber the columns
        wc[-1] = n_cols
    elif kind == "repeat":
        vals.append(vals[-1])
        wr.append(wr[-1])
        wc.append(wc[-1])
    else:
        # every cell of the n_rows x n_cols grid, more than the support bound
        taken = set(zip(wr, wc))
        for r in range(n_rows):
            for c in range(n_cols):
                if (r, c) not in taken:
                    vals.append(1e-3)
                    wr.append(r)
                    wc.append(c)
    return vals, wr, wc, dp, dq, n_rows, n_cols


BAD_CELL_MESSAGES = {
    "zero": "must be positive, got 0.0",
    "nan": "must be finite, got nan",
    "range": "outside 4 x 3",
    "repeat": "duplicate entry at",
    "count": "12 entries exceed the 2*max(n_rows, n_cols) support bound",
}


class TestRawCellsDeferToFinish:
    """A merge and ``metric_estimate`` check the walk's raw cells as
    ``_finish`` checks them, and leave every failure to ``_finish``, so they
    raise its ``ValueError``, message and all."""

    P4 = [0.4, 0.3, 0.2, 0.1]
    Q3 = [0.5, 0.3, 0.2]

    @pytest.fixture
    def finish_calls(self, monkeypatch):
        calls = []

        def counted(*cells):
            calls.append(cells)
            return _finish(*cells)

        monkeypatch.setattr(coupling, "_finish", counted)
        return calls

    @pytest.mark.parametrize("kind", sorted(BAD_CELL_MESSAGES))
    @pytest.mark.parametrize("caller", ["merge", "metric_estimate"])
    def test_a_bad_cell_raises_what_finish_raises(self, monkeypatch, finish_calls,
                                                  kind, caller):
        emitted = []

        def bad_walk(dp, dq, debug=False):
            cells, z = _walk(dp, dq, debug)
            emitted.append(corrupted(kind, cells))
            # the caller's _finish empties its copy; the test reads emitted
            return copied_cells(emitted[-1]), z

        module = multiway if caller == "merge" else reports
        monkeypatch.setattr(module, "_walk", bad_walk)
        with pytest.raises(ValueError) as got:
            if caller == "merge":
                mec.min_entropy_joint_k([self.P4, self.Q3])
            else:
                mec.metric_estimate(self.P4, self.Q3)
        assert len(emitted) == 1 and len(finish_calls) == 1
        with pytest.raises(ValueError) as want:
            _finish(*emitted[0])
        assert str(got.value) == str(want.value)
        assert BAD_CELL_MESSAGES[kind] in str(got.value)

    def test_a_passing_joint_never_runs_finish(self, finish_calls):
        rng = random.Random(2200)
        j = mec.min_entropy_joint_k([random_masses(rng, n) for n in (5, 9, 3, 7)])
        assert len(j.values()) > 0
        assert finish_calls == []

    def test_the_padded_column_defect_runs_finish_once(self, finish_calls):
        p, q = skewed_vs_flat_pair()
        assert (len(p), len(q)) == (38, 7)
        want = joint_outcome(reference_min_entropy_joint_k, [p, q])
        assert want[0] is ValueError and "outside" in want[1]
        del finish_calls[:]
        assert joint_outcome(mec.min_entropy_joint_k, [p, q]) == want
        assert len(finish_calls) == 1
        # metric_estimate raises what the sparse engine raises
        with pytest.raises(ValueError) as engine:
            mec.min_entropy_coupling_sparse(p, q)
        del finish_calls[:]
        with pytest.raises(ValueError) as metric:
            mec.metric_estimate(p, q)
        assert str(metric.value) == str(engine.value)
        assert len(finish_calls) == 1
