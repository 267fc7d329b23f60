import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcfusion.errors import DimensionMismatchError, DomainError, InvalidRankError
from bcfusion.fusion import AlcoveParams, alcove_enumerate
from bcfusion import rootdata
from bcfusion.rootdata import (RootDatum, Weight, _dominant_below, _freudenthal, _last_step,
                               _orbit, decreasing_rank, make_root_datum, root_pairings,
                               sort_network)

from conftest import w
from oracles import (WeylElement, character_multiset, dominant_below_scan, freudenthal_scalar,
                     kostant_mult, orbit_brute, weyl_elements)


def test_b2_positive_roots():
    datum = make_root_datum("B", 2)
    roots = {r.doubled for r in datum.positive_roots}
    assert roots == {(2, -2), (2, 2), (2, 0), (0, 2)}
    assert datum.rho.doubled == (3, 1)
    assert len(datum.positive_roots) == 4


def test_positive_root_count_is_rank_squared():
    for family in "BC":
        for rank in (2, 3, 4):
            assert len(make_root_datum(family, rank).positive_roots) == rank ** 2


def test_theta_is_highest_short_root():
    assert make_root_datum("B", 3).theta.doubled == (2, 0, 0)
    assert make_root_datum("C", 2).theta.doubled == (2, 2)


def test_c2_rho_matches_half_sum():
    datum = make_root_datum("C", 2)
    total = [0, 0]
    for r in datum.positive_roots:
        total = [a + b for a, b in zip(total, r.doubled)]
    assert tuple(x // 2 for x in total) == datum.rho.doubled == (4, 2)


def test_rho_is_built_once():
    # rho sits in the inner loops of affine reduction and qdim
    assert RootDatum("B", 3).rho is RootDatum("B", 3).rho


def test_invalid_rank():
    with pytest.raises(InvalidRankError):
        make_root_datum("B", 1)


def test_form_examples():
    b2 = make_root_datum("B", 2)
    eps1 = Weight((2, 0))
    assert b2.form(eps1, eps1) == 2
    assert b2.form(w(1, 0), w(0, 1)) == 0
    assert b2.form(w("3/2", "1/2"), b2.theta) == 3
    # short roots have squared length 2 in both families
    c3 = make_root_datum("C", 3)
    short = Weight((2, -2, 0))
    assert c3.form(short, short) == 2


def test_form_rank_mismatch():
    b2 = make_root_datum("B", 2)
    with pytest.raises(DimensionMismatchError):
        b2.form(w(1, 0), Weight((2, 0, 0)))


def test_weight_parity_and_parse():
    assert w(1, 0).parity == 1
    assert w("1/2", "1/2").parity == -1
    with pytest.raises(DomainError):
        _ = Weight((2, 1)).parity


small_weights = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def signed_permutations(draw, rank=3):
    perm = draw(st.permutations(list(range(rank))))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * rank))
    return WeylElement(tuple(perm), signs)


@given(signed_permutations(), signed_permutations())
def test_signature_is_a_homomorphism(w1, w2):
    assert (w1 * w2).sign == w1.sign * w2.sign


@given(signed_permutations(), signed_permutations(), small_weights)
def test_composition_acts_correctly(w1, w2, v):
    x = Weight(tuple(2 * e for e in v))
    assert (w1 * w2).apply(x) == w1.apply(w2.apply(x))


@given(small_weights, small_weights)
def test_form_symmetric_bilinear(u, v):
    datum = make_root_datum("B", 3)
    a, b = Weight(tuple(2 * e for e in u)), Weight(tuple(2 * e for e in v))
    assert datum.form(a, b) == datum.form(b, a)
    two_a = Weight(tuple(2 * e for e in a.doubled))
    assert datum.form(two_a, b) == 2 * datum.form(a, b)


@given(small_weights)
def test_coroot_pairing_identity(v):
    for family in "BC":
        datum = make_root_datum(family, 3)
        x = Weight(tuple(2 * e for e in v))
        for alpha in datum.positive_roots:
            assert datum.form_coroot(x, alpha) == 2 * datum.form(x, alpha) / datum.form(alpha, alpha)


@st.composite
def lattice_vectors(draw):
    """A B or C datum of rank 2-6 and 1-4 doubled weight-lattice vectors: uniform
    parity on B, even on C."""
    family = draw(st.sampled_from("BC"))
    rank = draw(st.integers(2, 6))
    parities = draw(st.lists(st.sampled_from((0, 1) if family == "B" else (0,)),
                             min_size=1, max_size=4))
    coords = st.lists(st.integers(-20, 20), min_size=rank, max_size=rank)
    return make_root_datum(family, rank), [tuple(2 * x + p for x in draw(coords))
                                           for p in parities]


@given(lattice_vectors(), st.booleans())
def test_root_pairings_are_the_fraction_pairings(case, coroot):
    datum, rows = case
    got = root_pairings(datum, rows, coroot)
    assert got.dtype == np.int64 and got.shape == (len(rows), len(datum.positive_roots))
    pairing = datum.form_coroot if coroot else datum.form
    for v, row in zip(rows, got.tolist()):
        assert row == [pairing(Weight(v), a) for a in datum.positive_roots]


def test_root_pairings_raise_when_not_integral():
    # doubled (1, 0): <v, (e1 + e2)_check> = 1/2 on B, <v, e1 + e2> = 1/2 on C
    for family, coroot in (("B", True), ("C", False)):
        with pytest.raises(AssertionError, match="not an integer"):
            root_pairings(make_root_datum(family, 2), [(1, 0)], coroot)


def test_theta_check_pairing_defines_alcove_wall(b2):
    # <mu+rho, theta_check> for B_2 is 2*mu_1 + 3
    for mu in (w(2, 1), w("5/2", "1/2")):
        assert b2.form(mu + b2.rho, b2.theta) == 2 * mu.entries[0] + 3


def test_weight_multiplicities_vector_rep(b2):
    mult = b2.weight_multiplicities(w(1, 0))
    expected = {w(1, 0): 1, w(-1, 0): 1, w(0, 1): 1, w(0, -1): 1, w(0, 0): 1}
    assert mult == expected
    assert sum(mult.values()) == b2.weyl_dim(w(1, 0)) == 5


def test_weight_multiplicities_spin_is_minuscule(b2):
    mult = b2.weight_multiplicities(w("1/2", "1/2"))
    assert set(mult) == {w("1/2", "1/2"), w("1/2", "-1/2"), w("-1/2", "1/2"), w("-1/2", "-1/2")}
    assert set(mult.values()) == {1}


def test_highest_weight_has_multiplicity_one(b2):
    for lam in (w(2, 1), w("3/2", "1/2"), w(3, 0)):
        assert b2.weight_multiplicities(lam)[lam] == 1


@pytest.mark.parametrize("family,rank,lam", [
    ("B", 2, (2, 0)), ("B", 2, (2, 2)), ("B", 2, (1, 1)), ("B", 2, (4, 2)),
    ("B", 3, (2, 2, 0)), ("B", 3, (1, 1, 1)), ("B", 3, (3, 1, 1)),
    ("C", 2, (4, 2)), ("C", 3, (2, 2, 2)),
])
def test_freudenthal_against_kostant(family, rank, lam):
    datum = make_root_datum(family, rank)
    lam = Weight(lam)
    got = datum.dominant_weight_multiplicities(lam)
    for mu, c in got.items():
        assert kostant_mult(datum, lam, mu) == c
    # no dominant weight missing: totals agree with the Weyl dimension formula
    oracle_total = sum(character_multiset(datum, lam).values())
    assert sum(c * len(datum.weyl_orbit(mu)) for mu, c in got.items()) == oracle_total == datum.weyl_dim(lam)


@pytest.mark.parametrize("family,rank,ell", [("B", 4, 17), ("C", 4, 15), ("B", 5, 13)])
def test_freudenthal_matches_scalar_loop_on_alcove_labels(family, rank, ell):
    """The numpy lookup pass gives the scalar loop's dict, keys in the same order."""
    for lab in alcove_enumerate(AlcoveParams(make_root_datum(family, rank), ell)):
        got = _freudenthal(family, rank, lab.doubled)
        assert list(got.items()) == list(freudenthal_scalar(family, rank, lab.doubled).items())


@st.composite
def _weights_below(draw):
    """(family, rank, lam, mus): a dominant weight lam of B or C at ranks 2-6 in
    doubled coordinates and some dominant weights mu <= lam."""
    family, rank = draw(st.sampled_from("BC")), draw(st.integers(2, 6))
    par = draw(st.sampled_from((0, 1))) if family == "B" else 0
    entries = sorted(draw(st.lists(st.integers(0, 6), min_size=rank, max_size=rank)), reverse=True)
    lam = tuple(2 * x + par for x in entries)
    doms = _dominant_below(make_root_datum(family, rank), lam)
    return family, rank, lam, draw(st.lists(st.sampled_from(doms), min_size=1, max_size=12))


@given(_weights_below())
def test_last_step_is_the_last_j_found_by_stepping(case):
    family, rank, lam, mus = case
    half = 1 if family == "B" else 2

    def norm(v, u=None):
        return sum(x * y for x, y in zip(v, u or v)) // half

    rows, stepped = [], []
    for mu in mus:
        for root in (r.doubled for r in rootdata._positive_roots(family, rank)):
            rows.append((norm(mu, root), norm(mu) - norm(lam), norm(root)))
            j = 0
            while norm(tuple(x + (j + 1) * y for x, y in zip(mu, root))) <= norm(lam):
                j += 1
            stepped.append(j)
    pair, excess, r_norm = np.array(rows, dtype=np.int64).T
    assert _last_step(pair, excess, r_norm).tolist() == stepped


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 9), st.sampled_from((1, 2, 4)))
def test_last_step_is_exact_on_large_values(pair, depth, r_norm):
    # largest j with r j^2 + 2 pair j - depth <= 0: r j + pair <= sqrt(pair^2 + r depth)
    expected = (math.isqrt(pair * pair + r_norm * depth) - pair) // r_norm
    got = _last_step(*(np.array([x], dtype=np.int64) for x in (pair, -depth, r_norm)))
    assert got.tolist() == [expected]


@given(st.integers(1, 10).flatmap(lambda k: st.lists(
    st.lists(st.integers(-4, 4), min_size=k, max_size=k), min_size=1, max_size=30)))
def test_sort_network_sorts_and_counts_inversions(rows):
    w = np.array(rows, dtype=np.int64).T.copy()
    parity = np.zeros(len(rows), dtype=bool)
    sort_network(w, parity)
    assert w.T.tolist() == [sorted(r, reverse=True) for r in rows]
    inversions = [sum(r[i] < r[j] for i in range(len(r)) for j in range(i + 1, len(r))) for r in rows]
    assert parity.tolist() == [n % 2 == 1 for n in inversions]


@pytest.mark.parametrize("k,top", [(1, 0), (1, 6), (2, 5), (3, 4), (4, 3), (5, 2), (6, 0)])
def test_decreasing_rank_is_the_lexicographic_place(k, top):
    """The rank is a bijection from the weakly decreasing k-tuples in [0, top]
    onto [0, C(top + k, k)), increasing in lexicographic order, and a column
    out of range or out of order still gets a place in that range."""
    tuples = sorted(itertools.combinations_with_replacement(range(top, -1, -1), k))
    ranks = decreasing_rank(np.array(tuples, dtype=np.int64).T.copy(), top)
    assert ranks.tolist() == list(range(math.comb(top + k, k)))
    rng = np.random.default_rng(k * 7 + top)
    stray = decreasing_rank(rng.integers(-3, top + 4, size=(k, 200)), top)
    assert stray.min() >= 0 and stray.max() < math.comb(top + k, k)


@pytest.mark.parametrize("family,rank,lam", [
    ("B", 4, (0, 0, 0, 0)),  # no (mu, root, j) term at all
    ("C", 3, (0, 0, 0)),
    ("B", 4, (1, 1, 1, 1)),  # the minuscule spin weight: no dominant weight below it
    ("B", 5, (1, 1, 1, 1, 1)),
    ("C", 3, (4, 2, 0)),
    ("C", 4, (6, 4, 2, 2)),
])
def test_freudenthal_edge_cases(family, rank, lam):
    got = _freudenthal(family, rank, lam)
    assert list(got.items()) == list(freudenthal_scalar(family, rank, lam).items())
    if lam == (0,) * rank or lam == (1,) * rank:
        assert got == {lam: 1}
    assert all(type(m) is int and type(x) is int for mu, m in got.items() for x in mu)


BATCHES = [
    # the unit, the spin weight, repeats, integral and half-integral weights in one batch
    ("B", 4, [(0, 0, 0, 0), (1, 1, 1, 1), (6, 4, 2, 0), (1, 1, 1, 1), (7, 5, 3, 1), (2, 0, 0, 0),
              (0, 0, 0, 0), (6, 4, 2, 0), (11, 3, 3, 1)]),
    ("B", 5, [(3, 3, 1, 1, 1), (0, 0, 0, 0, 0), (4, 4, 2, 2, 0), (1, 1, 1, 1, 1)]),
    ("C", 3, [(0, 0, 0), (4, 2, 0), (2, 0, 0), (6, 4, 2), (4, 2, 0), (8, 2, 2)]),
    ("C", 4, [(6, 4, 2, 2), (0, 0, 0, 0), (2, 2, 0, 0), (6, 4, 2, 2)]),
]


@pytest.mark.parametrize("family,rank,lams", BATCHES)
@pytest.mark.parametrize("budget", [0, 1, 300, 10 ** 9])
def test_freudenthal_passes_equal_one_weight_at_a_time(monkeypatch, family, rank, lams, budget):
    """Whatever the budget packs into a pass, each highest weight gets the dict
    of ``_freudenthal`` and the scalar loop, values and key order, as a
    read-only int64 array and Python ints.  A pass is filled in order while
    its (dominant weight, positive root) pairs stay within the budget, so
    budget 0 or 1 runs one weight a pass and a large one a single pass."""
    real, passes = rootdata._freudenthal_pass, []
    roots = len(rootdata._positive_roots(family, rank))

    def spy(family, rank, batch):
        passes.append([len(doms) * roots for _, doms in batch])
        return real(family, rank, batch)

    monkeypatch.setattr(rootdata, "_freudenthal_pass", spy)
    got = list(rootdata._freudenthal_passes(family, rank, lams, budget))
    assert len(got) == len(lams) == sum(map(len, passes))
    for this, after in zip(passes, passes[1:]):
        assert sum(this) + after[0] > budget
    assert all(len(this) == 1 or sum(this) <= budget for this in passes)
    if budget <= 1:
        assert list(map(len, passes)) == [1] * len(lams)
    if budget == 10 ** 9:
        assert list(map(len, passes)) == [len(lams)]
    for lam, (doms, mults) in zip(lams, got):
        assert doms.dtype == np.int64 and not doms.flags.writeable
        assert all(type(m) is int for m in mults)
        items = list(zip(map(tuple, doms.tolist()), mults))
        assert items == list(_freudenthal(family, rank, lam).items())
        assert items == list(freudenthal_scalar(family, rank, lam).items())


def test_freudenthal_counts_weyl_dim_on_every_b4_l21_label():
    datum = make_root_datum("B", 4)
    labels = alcove_enumerate(AlcoveParams(datum, 21))
    assert len(labels) == 420
    for lam in labels:
        mult = datum.dominant_weight_multiplicities(lam)
        assert sum(c * len(datum.weyl_orbit(mu)) for mu, c in mult.items()) == datum.weyl_dim(lam)


def test_freudenthal_raises_when_not_integral(monkeypatch):
    """Without the short root e_2, the division at mu = 0 below the vector weight is inexact."""
    roots = rootdata._positive_roots("B", 2)
    assert roots[3].doubled == (0, 2)
    monkeypatch.setattr(rootdata, "_positive_roots", lambda family, rank: roots[:3])
    _freudenthal.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"not integral at \(0, 0\) below \(2, 0\)"):
            _freudenthal("B", 2, (2, 0))
    finally:
        _freudenthal.cache_clear()


def test_weyl_orbit_invariance(b3):
    lam = Weight((2, 2, 0))
    mult = b3.weight_multiplicities(lam)
    for welt in weyl_elements(3)[:48:7]:
        for mu, c in mult.items():
            assert mult[welt.apply(mu)] == c


def _orbit_set(doubled: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The rows of _orbit(doubled) as a set, after checking that the array is
    read-only int64 of shape (images, rank) and lists no image twice."""
    rows = _orbit(doubled)
    assert rows.dtype == np.int64 and rows.shape[1:] == (len(doubled),)
    assert not rows.flags.writeable
    images = set(map(tuple, rows.tolist()))
    assert len(images) == len(rows)
    return images


@pytest.mark.parametrize("family,rank,ell", [("B", 4, 17), ("C", 4, 15)])
def test_orbit_matches_brute_force_on_alcove_labels(family, rank, ell):
    for lab in alcove_enumerate(AlcoveParams(make_root_datum(family, rank), ell)):
        assert _orbit_set(lab.doubled) == orbit_brute(lab.doubled)


def test_orbit_of_the_c10_vector():
    # orbit_brute would walk all 10! 2^10 signed permutations here
    vector = make_root_datum("C", 10).fundamental_weight_1
    assert _orbit_set(vector.doubled) == {tuple(s * 2 * (j == i) for j in range(10))
                                          for i in range(10) for s in (1, -1)}


def test_adjoint_dimensions():
    # so(2k+1) has dimension k(2k+1); the adjoint of B_k is V_{(1,1,0,...)}
    for k in (2, 3, 4):
        datum = make_root_datum("B", k)
        assert datum.weyl_dim(Weight((2, 2) + (0,) * (k - 2))) == k * (2 * k + 1)
    # sp(2r) has dimension r(2r+1); the adjoint of C_r is V_{(2,0,...)}
    for r in (2, 3):
        datum = make_root_datum("C", r)
        assert datum.weyl_dim(Weight((4,) + (0,) * (r - 1))) == r * (2 * r + 1)


@pytest.mark.parametrize("family,rank,ell", [("B", 2, 11), ("B", 3, 13), ("B", 4, 17), ("C", 3, 11), ("C", 4, 15)])
def test_dominant_below_matches_box_scan(family, rank, ell):
    """Same weights in the same (lexicographic) order, which Freudenthal's stable sort keeps."""
    datum = make_root_datum(family, rank)
    for lam in alcove_enumerate(AlcoveParams(datum, ell)):
        assert _dominant_below(datum, lam.doubled) == dominant_below_scan(datum, lam.doubled)
