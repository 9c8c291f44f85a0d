"""Order comparisons, the lattice lower bound, and the half operator."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mec
import mec.cli
from mec.distributions import compensated_prefix
from conftest import (
    H_WORKED_GLB,
    WORKED_GLB,
    WORKED_P,
    WORKED_Q,
    random_masses,
    zero_padded_masses,
)


@st.composite
def mass_vectors(draw, max_n: int = 8) -> list[float]:
    n = draw(st.integers(1, max_n))
    weights = draw(
        st.lists(st.floats(1e-3, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    total = sum(weights)
    return [w / total for w in weights]


def prefix_sums(masses) -> list[float]:
    out, acc = [], 0.0
    for x in masses:
        acc += x
        out.append(acc)
    return out


class TestMajorizes:
    def test_reflexive(self):
        d = mec.make_distribution(WORKED_P)
        assert mec.majorizes(d, d)

    def test_uniform_below_point_mass(self):
        assert mec.majorizes([0.5, 0.5], [1.0])
        assert not mec.majorizes([1.0], [0.5, 0.5])

    def test_pads_shorter_input(self):
        assert mec.majorizes([0.6, 0.4], [0.6, 0.4, 0.0])
        assert mec.majorizes([0.6, 0.4, 0.0], [0.6, 0.4])

    def test_incomparable_pair(self):
        assert not mec.majorizes(WORKED_P, WORKED_Q)
        assert not mec.majorizes(WORKED_Q, WORKED_P)

    @given(mass_vectors(), mass_vectors())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_plain_prefix_comparison(self, a, b):
        da = mec.make_distribution(a, renormalize=True)
        db = mec.make_distribution(b, renormalize=True)
        n = max(da.n, db.n)
        pa = prefix_sums(da.padded(n).masses)
        pb = prefix_sums(db.padded(n).masses)
        expected = all(x <= y + 1e-12 for x, y in zip(pa, pb))
        assert mec.majorizes(da, db) == expected


def reference_glb(a, b) -> mec.Distribution:
    """glb as it was before it skipped the sort: the clamped prefix-minimum
    differences passed through make_distribution."""
    da = mec.as_distribution(a)
    db = mec.as_distribution(b)
    n = max(da.n, db.n)
    masses, previous, carry = [], 0.0, 0.0
    for x, y in zip(compensated_prefix(da.padded(n).masses),
                    compensated_prefix(db.padded(n).masses)):
        m = x if x <= y else y
        z = m - previous + carry
        if z < 0.0:
            carry, z = z, 0.0
        else:
            carry = 0.0
        masses.append(z)
        previous = m
    return mec.make_distribution(masses)


def near_uniform(rng: random.Random, n: int) -> list[float]:
    """Masses a few ulps apart, so glb's differences can come out unsorted."""
    nudges = (0.0, 0.0, 1e-15, -1e-15, 1e-13, 2.0**-50)
    values = [1.0 + rng.choice(nudges) for _ in range(n)]
    total = sum(values)
    return [v / total for v in values]


def zero_padded(rng: random.Random, n: int) -> list[float]:
    return zero_padded_masses(rng, n, rng.randint(1, 3))


class TestGlb:
    @pytest.mark.parametrize("make", [random_masses, near_uniform, zero_padded],
                             ids=["random", "ties", "zero-padded"])
    def test_equals_the_sorted_construction(self, make):
        rng = random.Random(181)
        unsorted = 0
        for _ in range(300):
            a = make(rng, rng.randint(1, 12))
            b = make(rng, rng.randint(1, 12))
            z = mec.glb(a, b)
            assert z == reference_glb(a, b)
            if z.perm == tuple(range(z.n)):
                assert z == mec.make_distribution(list(z.masses))
            else:
                unsorted += 1
        if make is near_uniform:
            # roundoff left some differences out of order: the sorting
            # fallback ran and matched too
            assert unsorted > 0

    def test_worked_pair_golden(self):
        z = mec.glb(WORKED_P, WORKED_Q)
        assert z.n == 6
        for got, want in zip(z.masses, WORKED_GLB):
            assert got == pytest.approx(want, abs=1e-12)

    def test_idempotent(self):
        z = mec.glb(WORKED_P, WORKED_P)
        for got, want in zip(z.masses, WORKED_P):
            assert got == pytest.approx(want, abs=1e-12)

    def test_returns_lower_input_when_comparable(self):
        low = [0.4, 0.3, 0.3]
        high = [0.8, 0.1, 0.1]
        assert mec.majorizes(low, high)
        z = mec.glb(low, high)
        for got, want in zip(z.masses, low):
            assert got == pytest.approx(want, abs=1e-12)

    @given(mass_vectors(), mass_vectors())
    @settings(max_examples=100, deadline=None)
    def test_is_a_lower_bound_with_min_prefix_sums(self, a, b):
        da = mec.make_distribution(a, renormalize=True)
        db = mec.make_distribution(b, renormalize=True)
        z = mec.glb(da, db)
        assert mec.majorizes(z, da)
        assert mec.majorizes(z, db)
        n = max(da.n, db.n)
        assert z.n == n
        got = prefix_sums(z.masses)
        want = [
            min(x, y)
            for x, y in zip(
                prefix_sums(da.padded(n).masses), prefix_sums(db.padded(n).masses)
            )
        ]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)
        assert math.fsum(z.masses) == pytest.approx(1.0, abs=1e-9)
        assert all(z.masses[k] >= z.masses[k + 1] for k in range(n - 1))

    @given(mass_vectors(), mass_vectors())
    @settings(max_examples=100, deadline=None)
    def test_suffix_sums_are_maxima(self, a, b):
        da = mec.make_distribution(a, renormalize=True)
        db = mec.make_distribution(b, renormalize=True)
        z = mec.glb(da, db)
        n = z.n
        pm = da.padded(n).masses
        qm = db.padded(n).masses
        for i in range(n):
            want = max(math.fsum(pm[i:]), math.fsum(qm[i:]))
            assert math.fsum(z.masses[i:]) == pytest.approx(want, abs=1e-9)

    @given(mass_vectors(), mass_vectors())
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        za = mec.glb(a, b)
        zb = mec.glb(b, a)
        for x, y in zip(za.masses, zb.masses):
            assert x == pytest.approx(y, abs=1e-12)

    @given(mass_vectors(), mass_vectors(), mass_vectors())
    @settings(max_examples=60, deadline=None)
    def test_associative_within_tolerance(self, a, b, c):
        left = mec.glb(mec.glb(a, b), c)
        right = mec.glb(a, mec.glb(b, c))
        assert left.n == right.n
        for x, y in zip(left.masses, right.masses):
            assert x == pytest.approx(y, abs=1e-12)

    @given(mass_vectors(), mass_vectors())
    @settings(max_examples=100, deadline=None)
    def test_entropy_at_least_both_marginals(self, a, b):
        z = mec.glb(a, b)
        h = mec.shannon_entropy(z.masses)
        assert h >= mec.shannon_entropy(a) - 1e-9
        assert h >= mec.shannon_entropy(b) - 1e-9


@st.composite
def near_tie_distributions(draw) -> mec.Distribution:
    """A canonical Distribution of 1-12 masses a few ulps apart, some of
    them zero, so the compensated prefix sums round and their minimum's
    differences can come out unsorted."""
    n = draw(st.integers(1, 12))
    nudges = st.sampled_from([0.0, 1e-15, -1e-15, 1e-13, 2.0**-50, 2.0**-52])
    values = [1.0 + draw(nudges) for _ in range(n)]
    values += [0.0] * draw(st.integers(0, 2))
    total = math.fsum(values)
    return mec.make_distribution(draw(st.permutations([v / total for v in values])))


class TestGlbOnDistributions:
    """The one-pass glb gives the two-pass construction's masses, bit for
    bit, and its permutation."""

    @given(near_tie_distributions(), near_tie_distributions())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_two_pass_construction(self, a, b):
        got, want = mec.glb(a, b), reference_glb(a, b)
        assert got.perm == want.perm
        assert [x.hex() for x in got.masses] == [x.hex() for x in want.masses]


def raised(f, *args):
    """The type and message of what ``f(*args)`` raised."""
    with pytest.raises(Exception) as info:
        f(*args)
    return info.type, str(info.value)


class TestGlbOnInvalidRawInput:
    """A raw input that fails validation raises what make_distribution
    raises for it, and p is checked before q."""

    GOOD = [0.5, 0.3, 0.2]
    BAD = {
        "nan": [0.5, math.nan, 0.5],
        "inf": [0.5, math.inf],
        "negative": [0.7, -0.2, 0.5],
        "not-normalized": [0.5, 0.4],
        "empty": [],
    }

    @pytest.mark.parametrize("kind", list(BAD))
    def test_same_exception_as_make_distribution(self, kind):
        bad = self.BAD[kind]
        want = raised(mec.make_distribution, bad)
        assert raised(mec.glb, bad, self.GOOD) == want
        assert raised(mec.glb, self.GOOD, bad) == want
        assert raised(mec.glb, bad, mec.make_distribution(self.GOOD)) == want
        assert raised(mec.majorizes, bad, self.GOOD) == want
        assert raised(mec.majorizes, self.GOOD, bad) == want

    @pytest.mark.parametrize("p_kind, q_kind", [("nan", "empty"), ("empty", "negative"),
                                                ("not-normalized", "inf")])
    def test_p_is_checked_before_q(self, p_kind, q_kind):
        p, q = self.BAD[p_kind], self.BAD[q_kind]
        assert raised(mec.glb, p, q) == raised(mec.make_distribution, p)
        assert raised(mec.majorizes, p, q) == raised(mec.make_distribution, p)

    @pytest.mark.parametrize(
        "bad, message",
        [
            # the Distribution constructor lets a NaN through its order check
            (mec.Distribution((0.5, math.nan, 0.5), (0, 1, 2)), "component 1 is not finite: nan"),
            (mec.Distribution((math.inf, 0.5), (1, 0)), "component 0 is not finite: inf"),
            (mec.Distribution((0.5, 0.5, -math.inf), (0, 1, 2)),
             "component 2 is not finite: -inf"),
        ],
        ids=["nan", "inf", "minus-inf"],
    )
    def test_a_distribution_with_a_non_finite_mass(self, bad, message):
        # named by its position in the masses, as shannon_entropy names it;
        # raw input gets the same message
        want = (mec.InputError, message)
        good = mec.make_distribution(self.GOOD)
        for f in (mec.glb, mec.majorizes, mec.kl_divergence):
            for args in ((bad, self.GOOD), (self.GOOD, bad), (bad, good), (good, bad), (bad, bad)):
                assert raised(f, *args) == want
        assert raised(mec.shannon_entropy, bad) == want
        for engine in (mec.min_entropy_coupling_dense, mec.min_entropy_coupling_sparse):
            assert raised(engine, bad, self.GOOD) == want

    # built by hand, past the checks make_distribution runs on raw masses
    HAND_BUILT = {
        "total-1.1": mec.Distribution((0.6, 0.5), (0, 1)),
        "total-0.9": mec.Distribution((0.5, 0.4), (1, 0)),
        "negative": mec.Distribution((0.6, 0.5, -0.1), (2, 0, 1)),
        "nan": mec.Distribution((0.5, math.nan, 0.5), (0, 1, 2)),
        "inf": mec.Distribution((math.inf, 0.5), (1, 0)),
        "minus-inf": mec.Distribution((0.5, 0.5, -math.inf), (0, 1, 2)),
    }

    @pytest.mark.parametrize("kind", list(HAND_BUILT))
    def test_a_hand_built_distribution_is_checked_as_its_masses(self, kind):
        # every entry point that takes a marginal raises what make_distribution
        # raises for the Distribution's masses, whichever side it is on
        bad = self.HAND_BUILT[kind]
        want = raised(mec.make_distribution, list(bad.masses))
        good = mec.make_distribution(self.GOOD)
        pairwise = (mec.min_entropy_coupling_dense, mec.min_entropy_coupling_sparse,
                    mec.glb, mec.majorizes, mec.kl_divergence, mec.bounds_report,
                    mec.metric_estimate, mec.brute_force_min_entropy, mec.enumerate_vertices)
        for f in pairwise:
            for args in ((bad, self.GOOD), (self.GOOD, bad), (bad, good), (good, bad)):
                assert raised(f, *args) == want, (f.__name__, args)
        for ds in ([bad, self.GOOD, good], [self.GOOD, good, bad]):
            assert raised(mec.min_entropy_joint_k, ds) == want
            assert raised(mec.min_entropy_joint_k, ds, True) == want
        # a lone input is checked too, not passed through
        for f in (mec.glb_many, mec.joint_lower_bound_k, mec.frl_bounds):
            for ds in ([bad], [bad, self.GOOD], [good, bad]):
                assert raised(f, ds) == want, (f.__name__, ds)
        for f, args in ((mec.half, (bad,)), (mec.half_iter, (bad, 0)), (mec.half_iter, (bad, 2))):
            assert raised(f, *args) == want, (f.__name__, args)

    def test_a_hand_built_roundoff_mass_is_clamped_as_a_raw_one(self):
        # a mass in [-1e-12, 0) is roundoff, clamped to 0 as make_distribution
        # clamps it, so a built marginal gives the bits its raw masses give
        masses = (1.0 + 1e-13, -1e-13)
        built, raw = mec.Distribution(masses, (0, 1)), list(masses)
        other = [0.4, 0.3, 0.3]
        pairwise = (mec.min_entropy_coupling_sparse, mec.min_entropy_coupling_dense,
                    mec.metric_estimate, mec.bounds_report, mec.glb,
                    mec.brute_force_min_entropy, mec.enumerate_vertices)
        for f in pairwise:
            assert repr(f(built, other)) == repr(f(raw, other)), f.__name__
            assert repr(f(other, built)) == repr(f(other, raw)), f.__name__
        for ds in ([built, other], [other, built, other]):
            raw_ds = [raw if d is built else d for d in ds]
            assert repr(mec.min_entropy_joint_k(ds)) == repr(mec.min_entropy_joint_k(raw_ds))
        assert repr(mec.half(built)) == repr(mec.half(raw))
        assert min(mec.half(built).masses) == 0.0

    @staticmethod
    def counted(monkeypatch) -> tuple[list, list]:
        """Lists that collect, from here on, the masses of each pass of the
        marginal checks (``_caller_masses``) and the arguments of each call
        of the glb kernel (``_glb``, wherever a module binds it)."""
        checks, glbs = [], []
        check, kernel = mec.distributions._caller_masses, mec.majorization._glb
        monkeypatch.setattr(mec.distributions, "_caller_masses",
                            lambda raw, *a, **k: checks.append(raw) or check(raw, *a, **k))
        for module in (mec.majorization, mec.coupling, mec.reports):
            monkeypatch.setattr(module, "_glb", lambda *a: glbs.append(a) or kernel(*a))
        return checks, glbs

    def test_each_engine_checks_each_marginal_once(self, monkeypatch):
        # one pass of the checks per marginal, raw or built, and none on the glb
        calls, glbs = self.counted(monkeypatch)
        good = mec.make_distribution(self.GOOD)
        for engine in (mec.min_entropy_coupling_dense, mec.min_entropy_coupling_sparse):
            calls.clear()
            glbs.clear()
            engine(self.GOOD, good)
            assert calls == [self.GOOD, good.masses]
            assert len(glbs) == 1
        calls.clear()
        mec.glb(self.GOOD, good)
        assert calls == [self.GOOD, good.masses]

    def test_each_report_checks_each_marginal_once(self, monkeypatch):
        # each marginal is checked once, raw or built; metric_estimate takes
        # its glb from the engine's walk, so it computes one glb, as
        # bounds_report does
        calls, glbs = self.counted(monkeypatch)
        good = mec.make_distribution(self.GOOD)
        for report in (mec.bounds_report, mec.metric_estimate):
            for q in (good, self.GOOD):
                calls.clear()
                glbs.clear()
                report(self.GOOD, q)
                assert calls == [self.GOOD, q.masses if q is good else q]
                assert len(glbs) == 1

    def test_each_k_way_entry_checks_each_marginal_once(self, monkeypatch):
        # the merges of min_entropy_joint_k walk checked leaves, and glb_many
        # folds the glb kernel, so each marginal is checked once, a lone one too
        ds = [self.GOOD, mec.make_distribution(WORKED_P), WORKED_Q,
              mec.make_distribution(self.GOOD)]
        checked = [d.masses if isinstance(d, mec.Distribution) else d for d in ds]
        calls, _ = self.counted(monkeypatch)
        mec.min_entropy_joint_k(ds)
        assert calls == checked
        for f in (mec.glb_many, mec.joint_lower_bound_k, mec.frl_bounds):
            for k in range(1, len(ds) + 1):
                calls.clear()
                f(ds[:k])
                assert calls == checked[:k], (f.__name__, k)

    def test_the_couple_command_checks_each_marginal_once(self, monkeypatch, tmp_path, capsys):
        # mec couple checks each file's marginal once, and reports the entropy
        # of the glb its engine walked, which it computes once
        paths = []
        for name, masses in (("p", WORKED_P), ("q", WORKED_Q)):
            paths += [f"--{name}", str(tmp_path / f"{name}.json")]
            (tmp_path / f"{name}.json").write_text(json.dumps(masses), encoding="utf-8")
        calls, glbs = self.counted(monkeypatch)
        assert mec.cli.run(["couple", *paths]) == 0
        assert json.loads(capsys.readouterr().out)["glb_entropy_bits"] == H_WORKED_GLB
        assert calls == [list(WORKED_P), list(WORKED_Q)]
        assert len(glbs) == 1


class TestGlbMany:
    def test_single_input_returned(self):
        d = mec.make_distribution(WORKED_P)
        assert mec.glb_many([d]).masses == d.masses

    def test_two_inputs_reduce_to_glb(self):
        assert mec.glb_many([WORKED_P, WORKED_Q]).masses == mec.glb(
            WORKED_P, WORKED_Q
        ).masses

    def test_copies_are_idempotent(self):
        z = mec.glb_many([WORKED_P, WORKED_P, WORKED_P])
        for got, want in zip(z.masses, WORKED_P):
            assert got == pytest.approx(want, abs=1e-12)

    def test_rejects_empty_list(self):
        with pytest.raises(mec.EmptyError):
            mec.glb_many([])

    def test_fold_order_does_not_matter(self):
        rng = random.Random(5)
        for _ in range(20):
            ds = [random_masses(rng, rng.randint(1, 5)) for _ in range(4)]
            base = mec.glb_many(ds)
            shuffled = list(ds)
            rng.shuffle(shuffled)
            other = mec.glb_many(shuffled)
            for x, y in zip(base.masses, other.masses):
                assert x == pytest.approx(y, abs=1e-12)


class TestHalf:
    def test_point_mass(self):
        assert mec.half([1.0]).masses == (0.5, 0.5)

    def test_two_components(self):
        assert mec.half([0.6, 0.4]).masses == (0.3, 0.3, 0.2, 0.2)

    def test_duplicates_trailing_zeros(self):
        assert mec.half([1.0, 0.0]).masses == (0.5, 0.5, 0.0, 0.0)

    def test_adds_exactly_one_bit(self):
        assert mec.shannon_entropy(mec.half(WORKED_GLB).masses) == pytest.approx(
            H_WORKED_GLB + 1.0, abs=1e-12
        )

    def test_iterate_zero_is_identity(self):
        d = mec.make_distribution(WORKED_P)
        assert mec.half_iter(d, 0) is d

    def test_iterate_twice_on_point_mass(self):
        assert mec.half_iter([1.0], 2).masses == (0.25,) * 4

    def test_iterate_matches_composition(self):
        d = mec.make_distribution(WORKED_P)
        assert mec.half_iter(d, 2).masses == mec.half(mec.half(d)).masses

    def test_size_cap(self):
        with pytest.raises(mec.SizeCapError):
            mec.half_iter([0.5, 0.5], 3, cap=8)
        assert mec.half_iter([0.5, 0.5], 2, cap=8).n == 8

    def test_a_huge_iteration_count_hits_the_cap_without_building_it(self):
        # 2**(10**8) has 3e7 digits; int-to-str would refuse to print it
        with pytest.raises(mec.SizeCapError, match=r"^half_iter would produce 1 \* 2\*\*100000000 "):
            mec.half_iter([1.0], 10**8)
        # below cap.bit_length() the message gives the count itself
        with pytest.raises(mec.SizeCapError, match=r"^half_iter would produce 16 components, cap is 15$"):
            mec.half_iter([0.5, 0.5], 3, cap=15)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            mec.half_iter([1.0], -1)


class TestHalfOrderInteraction:
    @given(mass_vectors(), mass_vectors())
    @settings(max_examples=100, deadline=None)
    def test_half_preserves_the_order(self, a, b):
        da = mec.make_distribution(a, renormalize=True)
        db = mec.make_distribution(b, renormalize=True)
        low, high = (da, db) if mec.majorizes(da, db) else (db, da)
        if not mec.majorizes(low, high):
            return  # incomparable pair; nothing to check
        assert mec.majorizes(mec.half(low), mec.half(high))

    @given(mass_vectors(), mass_vectors(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_doubling_the_glb_stays_below_glb_of_doublings(self, a, b, i):
        da = mec.make_distribution(a, renormalize=True)
        db = mec.make_distribution(b, renormalize=True)
        lhs = mec.half_iter(mec.glb(da, db), i)
        rhs = mec.glb(mec.half_iter(da, i), mec.half_iter(db, i))
        assert mec.majorizes(lhs, rhs)

    @given(mass_vectors(), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_each_doubling_adds_one_bit(self, a, i):
        d = mec.make_distribution(a, renormalize=True)
        assert mec.shannon_entropy(mec.half_iter(d, i).masses) == pytest.approx(
            mec.shannon_entropy(d.masses) + i, abs=1e-9
        )
