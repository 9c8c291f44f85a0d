"""The gap for every Renyi order: one majorization witness per coupling.

Each glb component ends in at most j cells of a coupling, so the j-split of
the glb (every z_i replaced by j copies of z_i / j) sits below the coupling
in the majorization order. Every Renyi entropy is Schur-concave and gains
exactly log2 j on a j-split, and no coupling sits above the glb, so
H_a(glb) <= OPT_a <= H_a(M) <= H_a(glb) + log2 j at every order a. The
pairwise engines split each component at most once (j = 2, ``half``); the
k-way tree doubles the split once per level (``half_iter`` to the depth
ceil(log2 k)).

Inputs may carry masses below the 1e-12 internal tolerance. On some of them
the walk drains such a mass into a padded line and the engines raise the
padded-column ``ValueError`` of ROADMAP item 1; those inputs are generated,
not filtered out, must raise exactly that error, and are counted as a
Hypothesis event.
"""

from __future__ import annotations

import math

from hypothesis import event, given, settings
from hypothesis import strategies as st

import mec

ORDERS = (0.5, 2.0, 5.0, 50.0)
SLACK = 1e-9
# masses far below the 1e-12 internal tolerance, which can drain into a
# padded line
TINY = (3e-14, 1e-13, 2e-13, 5e-13)


@st.composite
def marginals(draw, max_n: int = 12) -> list[float]:
    """A normalized marginal: positive masses, and now and then explicit
    zeros or sub-tolerance masses, in any order."""
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=max_n))
    weights += draw(st.lists(st.sampled_from((0.0, *TINY)), max_size=3))
    weights = draw(st.permutations(weights))
    total = math.fsum(weights)
    return [w / total for w in weights]


def coupled(build, *args):
    """``build(*args)``, or None where it raises the padded-column
    ``ValueError``, which is counted; any other exception propagates."""
    try:
        return build(*args)
    except ValueError as exc:
        assert "outside" in str(exc), exc
        event("padded-column ValueError")
        return None


@settings(max_examples=150, deadline=None)
@given(p=marginals(), q=marginals())
def test_pairwise_coupling_sits_above_the_halved_glb(p, q):
    z = mec.glb(p, q)
    for engine in (mec.min_entropy_coupling_sparse, mec.min_entropy_coupling_dense):
        m = coupled(engine, p, q)
        if m is None:
            continue
        assert mec.majorizes(mec.half(z), m.values())
        for alpha in ORDERS:
            gap = mec.renyi_entropy(m.values(), alpha) - mec.renyi_entropy(z.masses, alpha)
            assert gap <= 1.0 + SLACK, alpha


@st.composite
def oracle_pairs(draw) -> tuple[list[float], list[float]]:
    """Pairs of at most the oracle's 20 cells."""
    p = draw(marginals(max_n=4).filter(lambda p: len(p) <= 5))
    q = draw(marginals(max_n=20 // len(p)).filter(lambda q: len(p) * len(q) <= 20))
    return p, q


@settings(max_examples=100, deadline=None)
@given(pair=oracle_pairs())
def test_glb_is_a_floor_for_every_order(pair):
    # a Renyi entropy is concave (a < 1) or quasi-concave (a > 1) on the
    # polytope of couplings, so its least value is at a vertex
    p, q = pair
    z = mec.glb(p, q)
    vertices = [v.values() for v in mec.enumerate_vertices(p, q)]
    m = coupled(mec.min_entropy_coupling_sparse, p, q)
    for alpha in ORDERS:
        opt = min(mec.renyi_entropy(values, alpha) for values in vertices)
        assert mec.renyi_entropy(z.masses, alpha) <= opt + SLACK, alpha
        if m is not None:
            assert mec.renyi_entropy(m.values(), alpha) - opt <= 1.0 + SLACK, alpha


@settings(max_examples=100, deadline=None)
@given(ds=st.lists(marginals(max_n=10), min_size=2, max_size=7))
def test_k_way_joint_sits_above_the_split_glb(ds):
    depth = (len(ds) - 1).bit_length()  # ceil(log2 k)
    joint = coupled(mec.min_entropy_joint_k, ds)
    if joint is None:
        return
    z = mec.glb_many(ds)
    assert mec.majorizes(mec.half_iter(z, depth), joint.values())
    for alpha in ORDERS:
        gap = mec.renyi_entropy(joint.values(), alpha) - mec.renyi_entropy(z.masses, alpha)
        assert gap <= depth + SLACK, alpha
