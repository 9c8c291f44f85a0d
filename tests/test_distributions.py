"""Canonical distributions, entropy functionals, divergence, aggregation."""

from __future__ import annotations

import decimal
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mec
from mec.distributions import _caller_masses
from conftest import H_WORKED_GLB, WORKED_GLB, WORKED_Q, random_masses


@st.composite
def mass_vectors(draw, max_n: int = 8) -> list[float]:
    n = draw(st.integers(1, max_n))
    weights = draw(
        st.lists(st.floats(1e-3, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    total = sum(weights)
    return [w / total for w in weights]


@st.composite
def tie_prone_vectors(draw) -> list[float]:
    # a few distinct weights, so ties are common, normalized to sum 1; then
    # explicit zeros, negative zeros and negative roundoff in [-1e-12, 0)
    weights = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 0.5]), min_size=1, max_size=10))
    total = math.fsum(weights)
    raw = [w / total for w in weights]
    specials = st.sampled_from([0.0, -0.0, -1e-12, -5e-13, -1e-300])
    for x in draw(st.lists(specials, max_size=4)):
        raw.insert(draw(st.integers(0, len(raw))), x)
    return raw


class TestMakeDistribution:
    def test_sorts_and_records_permutation(self):
        d = mec.make_distribution([0.3, 0.7])
        assert d.masses == (0.7, 0.3)
        assert d.perm == (1, 0)
        assert d.n == 2

    def test_sorted_input_keeps_identity_perm(self):
        d = mec.make_distribution(WORKED_Q)
        assert d.masses == WORKED_Q
        assert d.perm == tuple(range(6))

    def test_renormalizes_when_asked(self):
        d = mec.make_distribution([2, 2], renormalize=True)
        assert d.masses == (0.5, 0.5)

    def test_ties_keep_caller_order(self):
        d = mec.make_distribution([0.2, 0.3, 0.2, 0.3])
        assert d.perm == (1, 3, 0, 2)

    def test_clamps_negative_roundoff_to_zero(self):
        d = mec.make_distribution([1.0, -1e-13])
        assert d.masses == (1.0, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(mec.EmptyError):
            mec.make_distribution([])

    @given(tie_prone_vectors(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_perm_matches_the_value_then_index_key(self, raw, renormalize):
        d = mec.make_distribution(raw, renormalize=renormalize)
        # the values that get sorted: roundoff negatives clamped, then scaled
        # when renormalizing
        values = d.to_caller_order()
        if not renormalize:
            assert values == tuple(0.0 if x < 0.0 else x for x in raw)
        assert d.perm == tuple(sorted(range(len(raw)), key=lambda i: (-values[i], i)))
        assert d.masses == tuple(values[i] for i in d.perm)

    def test_order_check_skips_nan_like_a_pairwise_loop(self):
        nan = float("nan")
        # NaN compares false both ways, so only 0.2 < 0.5 side by side is caught
        assert mec.Distribution((0.2, nan, 0.5), (0, 1, 2)).n == 3
        assert mec.Distribution((nan, 0.5, 0.2), (0, 1, 2)).n == 3
        with pytest.raises(ValueError, match="sorted non-increasingly"):
            mec.Distribution((0.2, 0.5, nan), (0, 1, 2))

    def test_rejects_negative_mass(self):
        with pytest.raises(mec.NegativeMassError):
            mec.make_distribution([1.1, -0.1])

    def test_rejects_bad_total(self):
        with pytest.raises(mec.NotNormalizedError):
            mec.make_distribution([0.5, 0.6])

    def test_rejects_renormalizing_zero_total(self):
        with pytest.raises(mec.NotNormalizedError):
            mec.make_distribution([0.0, 0.0], renormalize=True)

    @pytest.mark.parametrize(
        "raw, renormalize, component",
        [
            ([math.nan, 1.0], False, 0),
            ([0.5, math.inf], False, 1),
            ([1.0, -math.inf], False, 1),
            ([math.inf, 1.0], True, 0),
        ],
        ids=["nan", "inf", "minus-inf", "inf-renormalized"],
    )
    def test_rejects_non_finite_components(self, raw, renormalize, component):
        with pytest.raises(mec.InputError, match=f"component {component} is not finite"):
            mec.make_distribution(raw, renormalize=renormalize)

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_overflowing_total_is_not_normalized(self, renormalize):
        with pytest.raises(mec.NotNormalizedError):
            mec.make_distribution([1e308, 1e308], renormalize=renormalize)

    def test_tol_widens_the_total_check(self):
        mec.make_distribution([0.5, 0.495], tol=0.01)
        with pytest.raises(mec.NotNormalizedError):
            mec.make_distribution([0.5, 0.495], tol=1e-9)

    @pytest.mark.parametrize("raw", [[0.9, 0.9], [0.5, 0.5]])
    def test_nan_tol_accepts_no_total(self, raw):
        with pytest.raises(mec.NotNormalizedError, match="expected 1 within nan"):
            mec.make_distribution(raw, tol=math.nan)

    @given(tie_prone_vectors(), st.booleans(),
           st.sampled_from([0.0, 1e-15, 1e-9, 0.5, math.inf, math.nan]),
           st.sampled_from([None, math.nan, math.inf, -0.2, 0.25, "empty"]))
    @settings(max_examples=300, deadline=None)
    def test_caller_masses_are_the_unsorted_distribution(self, raw, renormalize, tol, bad):
        # the same checks, exceptions and floats as make_distribution, unsorted
        if bad == "empty":
            raw = []
        elif bad is not None:
            raw[len(raw) // 2] = bad

        def outcome(f):
            try:
                return [x.hex() for x in f()]
            except mec.InputError as exc:
                return type(exc), str(exc)

        assert outcome(lambda: _caller_masses(raw, renormalize, tol)) == outcome(
            lambda: mec.make_distribution(raw, renormalize, tol).to_caller_order())

    @given(mass_vectors())
    @settings(max_examples=100, deadline=None)
    def test_caller_order_roundtrip(self, raw):
        d = mec.make_distribution(raw, renormalize=True)
        back = d.to_caller_order()
        total = sum(raw)
        for got, want in zip(back, raw):
            assert got == pytest.approx(want / total, abs=1e-15)
        assert sorted(d.perm) == list(range(d.n))

    def test_padding_appends_zeros_with_fresh_indices(self):
        d = mec.make_distribution([0.3, 0.7]).padded(4)
        assert d.masses == (0.7, 0.3, 0.0, 0.0)
        assert d.perm == (1, 0, 2, 3)
        assert d.padded(2) is d


class TestDistributionType:
    def test_rejects_unsorted_masses(self):
        with pytest.raises(ValueError):
            mec.Distribution((0.3, 0.7), (0, 1))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            mec.Distribution((0.7, 0.3), (0,))

    @pytest.mark.parametrize(
        "perm",
        [(0, 0), (1, 1), (1, 5), (-1, 0), (0.0, 1.0), (1, 0.0), ("0", "1"), (None, 1)],
        ids=["repeat-0", "repeat-1", "past-n", "negative", "floats", "one-float", "strs",
             "none"],
    )
    def test_rejects_a_perm_that_is_not_a_permutation(self, perm):
        with pytest.raises(ValueError, match=r"^perm must be a permutation of range\(2\)$"):
            mec.Distribution((0.5, 0.5), perm)

    def test_a_repeated_index_is_rejected_before_it_hides_mass(self):
        # perm (0, 0) would put both masses on caller index 0, and the oracle
        # would report an OPT of 0 bits for a pair whose OPT is 1 bit
        with pytest.raises(ValueError):
            mec.Distribution((0.5, 0.5), (0, 0))
        d = mec.Distribution((0.5, 0.5), (1, 0))
        assert mec.brute_force_min_entropy(d, [1.0]).opt_value == 1.0

    def test_accepts_permutations_of_integers(self):
        assert mec.Distribution((), ()).n == 0
        assert mec.Distribution((0.6, 0.4), (1, 0)).perm == (1, 0)
        assert mec.Distribution((0.6, 0.4), (False, True)).perm == (False, True)

    def test_padding_keeps_its_order_check(self):
        # a Distribution built without the constructor's checks, as the
        # engines build theirs, is still rejected when padded out of order
        d = object.__new__(mec.Distribution)
        object.__setattr__(d, "masses", (0.3, -0.1))
        object.__setattr__(d, "perm", (0, 1))
        with pytest.raises(ValueError, match="^masses must be sorted non-increasingly$"):
            d.padded(3)
        assert mec.make_distribution([0.3, 0.7]).padded(3).perm == (1, 0, 2)


class TestShannonEntropy:
    def test_uniform_pair(self):
        assert mec.shannon_entropy([0.5, 0.5]) == 1.0

    def test_point_mass(self):
        assert mec.shannon_entropy([1.0]) == 0.0

    def test_frozen_golden_value(self):
        assert mec.shannon_entropy(WORKED_GLB) == pytest.approx(
            H_WORKED_GLB, abs=1e-12
        )

    def test_zero_padding_is_exactly_neutral(self):
        base = [0.4, 0.35, 0.25]
        assert mec.shannon_entropy(base + [0.0, 0.0]) == mec.shannon_entropy(base)

    def test_accepts_subnormalized_input(self):
        assert mec.shannon_entropy([0.25, 0.25]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_entries(self):
        with pytest.raises(mec.NegativeMassError):
            mec.shannon_entropy([0.5, -0.5])

    def test_accepts_distribution_objects(self):
        d = mec.make_distribution([0.5, 0.5])
        assert mec.shannon_entropy(d) == 1.0

    def test_rejects_nan_in_distribution_objects(self):
        # the public constructor lets a NaN through its order check
        d = mec.Distribution((0.5, math.nan, 0.5), (0, 1, 2))
        with pytest.raises(mec.InputError, match=r"^component 1 is not finite: nan$"):
            mec.shannon_entropy(d)


NON_FINITE_ENTROPY_CASES = [
    ([0.5, math.nan, 0.5], mec.InputError, "component 1 is not finite: nan"),
    ([math.inf, 0.5], mec.InputError, "component 0 is not finite: inf"),
    ([0.5, 0.0, -math.inf], mec.InputError, "component 2 is not finite: -inf"),
    # index order decides between a non-finite and a negative component
    ([0.5, -0.5, math.nan], mec.NegativeMassError, "component 1 is negative: -0.5"),
    ([0.5, math.nan, -0.5], mec.InputError, "component 1 is not finite: nan"),
]


@pytest.mark.parametrize("raw, error, message", NON_FINITE_ENTROPY_CASES)
class TestEntropyRejectsNonFiniteMasses:
    """A NaN or infinite mass raises the error make_distribution raises for
    it, first bad component first, instead of being left out or giving -inf."""

    def test_shannon(self, raw, error, message):
        with pytest.raises(error) as info:
            mec.shannon_entropy(raw)
        assert str(info.value) == message

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_renyi(self, raw, error, message, alpha):
        with pytest.raises(error) as info:
            mec.renyi_entropy(raw, alpha)
        assert str(info.value) == message

    def test_same_as_make_distribution(self, raw, error, message):
        with pytest.raises(error) as info:
            mec.make_distribution(raw)
        assert str(info.value) == message


class TestRenyiEntropy:
    def test_uniform_pair_any_order(self):
        assert mec.renyi_entropy([0.5, 0.5], 2.0) == pytest.approx(1.0, abs=1e-12)
        assert mec.renyi_entropy([0.5, 0.5], 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert mec.renyi_entropy([1.0], 0.5) == 0.0

    @pytest.mark.parametrize("alpha", [1 + 1e-6, 1 - 1e-6])
    def test_near_one_matches_shannon(self, alpha):
        d = [0.75, 0.25]
        assert mec.renyi_entropy(d, alpha) == pytest.approx(
            mec.shannon_entropy(d), abs=1e-4
        )

    @pytest.mark.parametrize("alpha", [0.0, -2.0, 1.0, 1 + 1e-10])
    def test_rejects_bad_orders(self, alpha):
        with pytest.raises(mec.BadAlphaError):
            mec.renyi_entropy([0.5, 0.5], alpha)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_orders(self, alpha):
        with pytest.raises(mec.BadAlphaError, match="order must lie in"):
            mec.renyi_entropy([0.5, 0.5], alpha)

    @given(mass_vectors(), st.sampled_from([0.5, 2.0, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, raw, alpha):
        shuffled = list(raw)
        random.Random(0).shuffle(shuffled)
        assert mec.renyi_entropy(shuffled, alpha) == pytest.approx(
            mec.renyi_entropy(raw, alpha), abs=1e-10
        )

    @given(mass_vectors(), st.sampled_from([0.5, 2.0, 3.0, 10.0, 50.0]))
    # masses above 1 whose power sum is a normal float, up to the largest one
    @example([2.0, 2.0], 3.0)
    @example([1e100, 1e100], 3.0)
    @example([1e154], 2.0)
    @example([3.0, 1.0], 600.0)
    @settings(max_examples=60, deadline=None)
    def test_a_normal_power_sum_keeps_the_plain_formula(self, raw, alpha):
        power_sum = math.fsum(x**alpha for x in raw)
        assert sys.float_info.min <= power_sum < math.inf
        want = math.log2(power_sum) / (1.0 - alpha) + 0.0
        assert mec.renyi_entropy(raw, alpha).hex() == want.hex()

    @pytest.mark.parametrize("raw, alpha, want", [
        # the plain power sum is 0.0, whose log2 raises
        ([0.5, 0.5], 2000.0, 1.0),
        ([1e-3] * 1000, 110.0, math.log2(1000)),
        # the plain power sum is subnormal and drifts in the fifth digit
        ([1e-3] * 1000, 107.0, math.log2(1000)),
    ])
    def test_an_underflowing_power_sum_factors_out_the_largest_mass(self, raw, alpha, want):
        assert mec.renyi_entropy(raw, alpha) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("raw, alpha, want", [
        # pow overflows on a term
        ([2.0, 2.0], 2000.0, -2001 / 1999),
        ([1e300, 1e300], 2.0, -1994.1568569324174),
        # every term is finite, and fsum overflows on their sum
        ([1e154, 1e154], 2.0, -(2.0 * math.log2(1e154) + 1.0)),
    ])
    def test_an_overflowing_power_sum_factors_out_the_largest_mass(self, raw, alpha, want):
        assert mec.renyi_entropy(raw, alpha) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("alpha", [120, 1500])
    def test_large_orders_match_exact_arithmetic(self, alpha):
        raw = [0.6, 0.3, 0.1]
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            power_sum = sum(decimal.Decimal(x) ** alpha for x in raw)
            want = float(power_sum.ln() / decimal.Decimal(2).ln() / (1 - alpha))
        assert mec.renyi_entropy(raw, alpha) == pytest.approx(want, rel=1e-14)


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert mec.kl_divergence([0.6, 0.4], [0.6, 0.4]) == 0.0

    def test_point_mass_against_uniform(self):
        assert mec.kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_support_mismatch_raises(self):
        with pytest.raises(mec.SupportMismatchError):
            mec.kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_alignment_is_by_sorted_position(self):
        # (0.3, 0.7) sorts to (0.7, 0.3): compared against itself sorted
        assert mec.kl_divergence([0.3, 0.7], [0.7, 0.3]) == 0.0


@st.composite
def vector_with_partition(draw):
    raw = draw(mass_vectors())
    n = len(raw)
    cells: dict[int, list[int]] = {}
    for i in range(n):
        cells.setdefault(draw(st.integers(0, n - 1)), []).append(i)
    return raw, list(cells.values())


class TestAggregate:
    def test_merges_cells(self):
        d = mec.aggregate([0.5, 0.3, 0.2], [{0}, {1, 2}])
        assert d.masses == (0.5, 0.5)

    def test_singleton_partition_is_identity(self):
        d = mec.aggregate([0.4, 0.3, 0.2, 0.1], [{0}, {1}, {2}, {3}])
        assert d.masses == (0.4, 0.3, 0.2, 0.1)

    def test_cells_use_caller_indices(self):
        d = mec.aggregate([0.4, 0.3, 0.2, 0.1], [{0, 3}, {1}, {2}])
        assert d.masses == (0.5, 0.3, 0.2)

    @pytest.mark.parametrize(
        "partition",
        [
            [{0}, {0, 1}, {2}],  # overlap
            [{0}, {2}],  # not covering
            [{0}, {1}, {2}, {9}],  # out of range
            [{0}, set(), {1, 2}],  # empty cell
            [[0], [1.5], [2]],  # not an integer
            [[0], [1.0], [2]],  # a float, even an integral one
            [[0], ["1"], [2]],  # a string
            [[0], [None], [2]],  # no index at all
        ],
    )
    def test_rejects_bad_partitions(self, partition):
        with pytest.raises(mec.BadPartitionError):
            mec.aggregate([0.5, 0.3, 0.2], partition)

    @given(vector_with_partition())
    @settings(max_examples=100, deadline=None)
    def test_aggregation_sits_above_in_the_order(self, case):
        raw, partition = case
        p = mec.make_distribution(raw, renormalize=True)
        merged = mec.aggregate(p, partition)
        assert mec.majorizes(p, merged)

    @given(vector_with_partition())
    @settings(max_examples=100, deadline=None)
    def test_entropy_drop_dominates_divergence(self, case):
        # H(fine) >= H(coarse) + D(coarse || fine) on aggregation pairs
        raw, partition = case
        p = mec.make_distribution(raw, renormalize=True)
        merged = mec.aggregate(p, partition)
        lhs = mec.shannon_entropy(p.masses)
        rhs = mec.shannon_entropy(merged.masses) + mec.kl_divergence(merged, p)
        assert lhs >= rhs - 1e-9
