import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcfusion import fusion, rootdata
from bcfusion.errors import ConfigurationError, DomainError
from bcfusion.fusion import (AlcoveParams, FusionTable, affine_reduce, alcove_enumerate,
                             _generators, _reduce_rows, bratteli_endo_dim, classical_tensor, fuse,
                             fuse_matrix, fuse_pairs, fuse_two_stage, fuse_two_stage_pairs,
                             label_positions)
from bcfusion.rootdata import Weight, make_root_datum
from bcfusion.verify import DEFAULT_GRID

from conftest import w
from oracles import (affine_reduce_bfs, alcove_box_scan, associativity_full,
                     associativity_generator_identity,
                     char_product_decompose, classical_tensor_scalar, dominant_weights_up_to,
                     reduce_rows_loop, weyl_elements)


def test_alcove_b2_ell9(params29):
    labels = alcove_enumerate(params29)
    assert len(labels) == 12
    integral = {lab for lab in labels if lab.parity == 1}
    half = {lab for lab in labels if lab.parity == -1}
    assert integral == {w(0, 0), w(1, 0), w(1, 1), w(2, 0), w(2, 1), w(2, 2)}
    assert half == {w("1/2", "1/2"), w("3/2", "1/2"), w("3/2", "3/2"),
                    w("5/2", "1/2"), w("5/2", "3/2"), w("5/2", "5/2")}


@pytest.mark.parametrize("family,rank,ell", [("B", 2, 9), ("B", 2, 11), ("B", 3, 13), ("B", 4, 15),
                                             ("B", 5, 13), ("C", 2, 9), ("C", 3, 11), ("C", 4, 13)])
def test_alcove_matches_box_scan(family, rank, ell):
    params = AlcoveParams(make_root_datum(family, rank), ell)
    got = {lab.doubled for lab in alcove_enumerate(params)}
    assert got == alcove_box_scan(family, rank, ell)


def test_unit_always_in_alcove():
    for (family, rank, ell) in [("B", 2, 7), ("B", 3, 13), ("B", 4, 17), ("C", 2, 9)]:
        params = AlcoveParams(make_root_datum(family, rank), ell)
        assert Weight.zero(rank) in alcove_enumerate(params)


def test_gamma_is_unique_longest_label(params29):
    labels = alcove_enumerate(params29)
    norms = {lab: sum(x * x for x in lab.doubled) for lab in labels}
    top = max(norms.values())
    longest = [lab for lab, n in norms.items() if n == top]
    assert longest == [w("5/2", "5/2")]


def test_alcove_rejects_even_or_tiny_ell(b2):
    with pytest.raises(ConfigurationError):
        AlcoveParams(b2, 8)
    with pytest.raises(ConfigurationError):
        AlcoveParams(b2, 3)


def test_nondegeneracy_flag(b2):
    # ell = 7 fails 4k < ell (rho + Lambda_1 leaves the alcove), and the alcove is still fine
    assert len(alcove_enumerate(AlcoveParams(b2, 7))) == 6


def test_affine_reduce_walls(params29):
    # (3,0)+rho = (9/2,1/2) pairs to ell with theta_check: on the affine wall
    lab, sign = affine_reduce(params29, w(3, 0))
    assert sign == 0 and lab is None
    # (4,0)+rho = (11/2,1/2) reflects through the wall to (7/2,1/2): label (2,0), sign -1
    assert affine_reduce(params29, w(4, 0)) == (w(2, 0), -1)


def test_affine_reduce_fixes_alcove(params29):
    for lab in alcove_enumerate(params29):
        assert affine_reduce(params29, lab) == (lab, 1)


def test_affine_reduce_signs(params29):
    # (4,1): 4+3/2 > 9/2 wall => t_ell then sort: lands back in the alcove with a sign
    lab, sign = affine_reduce(params29, w(4, 1))
    assert sign in (-1, 1) and lab is not None
    assert lab in alcove_enumerate(params29)


@given(st.tuples(st.integers(-7, 7), st.integers(-7, 7)))
def test_affine_reduce_lands_in_alcove(v):
    params = AlcoveParams(make_root_datum("B", 2), 9)
    xi = Weight(tuple(2 * e for e in v))
    lab, sign = affine_reduce(params, xi)
    if sign:
        assert lab in alcove_enumerate(params)
    else:
        assert lab is None


@given(st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8)))
def test_spin_sector_never_dies_on_affine_wall(v):
    """Half-integral weights can only die on finite walls (parity argument)."""
    params = AlcoveParams(make_root_datum("B", 3), 13)
    datum = params.datum
    xi = Weight(tuple(2 * e + 1 for e in v))
    lab, sign = affine_reduce(params, xi)
    if sign == 0:
        # shadow reduction: walk the same orbit and show a finite wall is hit
        vec = (xi + datum.rho).doubled
        while True:
            s = tuple(sorted((abs(x) for x in vec), reverse=True))
            if s[-1] == 0 or any(s[i] == s[i + 1] for i in range(len(s) - 1)):
                break  # finite wall: allowed
            pairing = s[0]
            assert pairing != params.ell, "affine wall hit by a spin-sector weight"
            assert pairing > params.ell
            vec = (s[0] + 2 * (params.ell - s[0]),) + s[1:]
    else:
        assert lab.parity == -1


def test_classical_tensor_examples(b2):
    assert classical_tensor(b2, w(1, 0), w(1, 0)) == {w(2, 0): 1, w(1, 1): 1, w(0, 0): 1}
    spin = w("1/2", "1/2")
    assert classical_tensor(b2, spin, spin) == {w(1, 1): 1, w(1, 0): 1, w(0, 0): 1}
    assert b2.weyl_dim(w(1, 1)) + b2.weyl_dim(w(1, 0)) + b2.weyl_dim(w(0, 0)) == 16


def test_classical_tensor_unit(b3):
    for lam in (w(1, 1, 0), w("3/2", "1/2", "1/2")):
        assert classical_tensor(b3, Weight.zero(3), lam) == {lam: 1}


@pytest.mark.parametrize("rank", [2, 3])
def test_classical_tensor_against_character_product(rank):
    datum = make_root_datum("B", rank)
    weights = dominant_weights_up_to(datum, 2)
    for i, lam in enumerate(weights):
        for mu in weights[i:]:
            assert classical_tensor(datum, lam, mu) == char_product_decompose(datum, lam, mu)


CLASSICAL_CELLS = [("B", 2, 9), ("B", 3, 13), ("B", 4, 15), ("B", 5, 13), ("C", 3, 11), ("C", 4, 11)]


@pytest.mark.parametrize("family,rank,ell", CLASSICAL_CELLS)
def test_classical_tensor_matches_scalar_loop(family, rank, ell):
    params = AlcoveParams(make_root_datum(family, rank), ell)
    labels = alcove_enumerate(params)
    rng = random.Random(f"{family}{rank},{ell}")
    for _ in range(25):
        lam, mu = rng.choice(labels), rng.choice(labels)
        assert classical_tensor(params.datum, lam, mu) == classical_tensor_scalar(params.datum, lam, mu)


def test_classical_tensor_matches_scalar_loop_on_squares(params313):
    for lam in alcove_enumerate(params313):
        assert (classical_tensor(params313.datum, lam, lam)
                == classical_tensor_scalar(params313.datum, lam, lam))


def test_classical_tensor_shares_no_kernel_with_fuse(monkeypatch, params313):
    """The oracle's first stage must not lean on the code it checks."""
    def forbidden(*args):
        raise AssertionError("classical_tensor called a fuse kernel")

    labels = alcove_enumerate(params313)
    expected = {(lam, mu): classical_tensor_scalar(params313.datum, lam, mu)
                for lam, mu in zip(labels, reversed(labels))}
    reduced = fuse_two_stage_pairs(params313, list(expected))
    for name in ("_orbit_blocks", "_orbit_template", "_stacked", "_label_keys", "label_positions"):
        monkeypatch.setattr(fusion, name, forbidden)
    # the second stage reduces with the shared kernel and nothing else of fuse's
    assert np.array_equal(fuse_two_stage_pairs(params313, list(expected)), reduced)
    # the multisets are rootdata's and shared by both routes: warm the one the
    # last check needs, so that only the oracle's own code runs under the patch
    params313.datum.dominant_weight_multiplicities(w(1, 0, 0))
    monkeypatch.setattr(fusion, "_reduce_rows", forbidden)
    monkeypatch.setattr(fusion, "sort_network", forbidden)
    monkeypatch.setattr(rootdata, "sort_network", forbidden)
    for (lam, mu), decomposition in expected.items():
        assert classical_tensor(params313.datum, lam, mu) == decomposition
    assert classical_tensor(params313.datum, w(1, 0, 0), w(1, 0, 0)) == {
        w(2, 0, 0): 1, w(1, 1, 0): 1, w(0, 0, 0): 1}


def test_fuse_shares_no_orbit_code_with_classical_tensor(monkeypatch, params313):
    """fuse enumerates Weyl orbits by itself, not through what the oracle uses."""
    def forbidden(*args):
        raise AssertionError("fuse called an oracle's Weyl orbit code")

    labels = alcove_enumerate(params313)
    pairs = list(zip(labels, reversed(labels)))
    expected = [fuse_two_stage(params313, lam, mu) for lam, mu in pairs]
    monkeypatch.setattr(rootdata.RootDatum, "weyl_orbit", forbidden)
    monkeypatch.setattr(rootdata, "_orbit", forbidden)
    assert [fuse(params313, lam, mu) for lam, mu in pairs] == expected


def _orbit_rows(dom: Weight) -> list[tuple[int, ...]]:
    from bcfusion.fusion import _orbit_blocks

    return [tuple(row) for images, _ in _orbit_blocks({dom: 1}) for row in images.tolist()]


@pytest.mark.parametrize("family,rank,ell", [("B", 3, 13), ("B", 4, 15), ("C", 3, 11), ("C", 4, 11)])
def test_orbit_rows_are_the_weyl_orbit(family, rank, ell):
    params = AlcoveParams(make_root_datum(family, rank), ell)
    doms = {d for lam in alcove_enumerate(params)
            for d in params.datum.dominant_weight_multiplicities(lam)}
    for d in doms:
        rows = _orbit_rows(d)
        assert len(rows) == len(set(rows))
        assert set(rows) == set(map(tuple, params.datum.weyl_orbit(d).tolist()))


def test_orbit_rows_of_the_c10_vector():
    datum = make_root_datum("C", 10)
    rows = _orbit_rows(datum.fundamental_weight_1)
    assert len(rows) == len(set(rows)) == 20
    assert set(rows) == set(map(tuple, datum.weyl_orbit(datum.fundamental_weight_1).tolist()))


def test_classical_tensor_support_in_ball(b2):
    lam, mu = w(1, 1), w(2, 1)
    radius_sq = sum(e * e for e in lam.entries)
    for nu in classical_tensor(b2, lam, mu):
        dist_sq = sum((a - b) ** 2 for a, b in zip(nu.entries, mu.entries))
        assert dist_sq <= radius_sq


def test_fuse_examples_b2_ell9(params29):
    assert fuse(params29, w(1, 0), w(1, 0)) == {w(2, 0): 1, w(1, 1): 1, w(0, 0): 1}
    assert fuse(params29, w(2, 0), w(1, 0)) == {w(1, 0): 1, w(2, 1): 1}
    spin = w("1/2", "1/2")
    assert fuse(params29, spin, spin) == {w(0, 0): 1, w(1, 0): 1, w(1, 1): 1}


def test_fuse_requires_alcove_labels(params29):
    with pytest.raises(DomainError):
        fuse(params29, w(3, 0), w(1, 0))


def test_fuse_matches_two_stage_everywhere(params29, params211, params313):
    for params in (params29, params211, params313):
        labels = alcove_enumerate(params)
        for i, lam in enumerate(labels):
            for mu in labels[i:]:
                assert fuse(params, lam, mu) == fuse_two_stage(params, lam, mu)


@pytest.mark.parametrize("rank", [4, 5])
def test_fuse_matches_two_stage_at_ell_21(rank):
    """Seeded pairs and the largest label with itself, past the table-sized cells."""
    params = AlcoveParams(make_root_datum("B", rank), 21)
    labels = alcove_enumerate(params)
    big = max(labels, key=lambda lab: (params.datum.weyl_dim(lab), lab.doubled))
    rng = random.Random(rank)
    for lam, mu in [(big, big)] + [tuple(rng.sample(labels, 2)) for _ in range(20)]:
        assert fuse(params, lam, mu) == fuse_two_stage(params, lam, mu)


def test_fuse_matches_two_stage_at_high_rank():
    """C_11 at ell = 27: reduced labels past the (2 ell)^rank int64 range."""
    params = AlcoveParams(make_root_datum("C", 11), 27)
    vector = params.datum.fundamental_weight_1
    fused = fuse(params, vector, vector)
    assert len(fused) == 3
    assert fuse_two_stage(params, vector, vector) == fused


def test_fuse_matches_two_stage_past_the_classical_key_range():
    """C_20 at ell = 45, the vector weight with (5, 0, ..., 0): a classical key
    raveled on (largest entry + 1)^rank would leave int64."""
    params = AlcoveParams(make_root_datum("C", 20), 45)
    vector = params.datum.fundamental_weight_1
    mu = Weight.from_entries((5,) + (0,) * 19)
    fused = fuse(params, vector, mu)
    assert fused
    assert fuse_two_stage(params, vector, mu) == fused


def test_fuse_has_no_reduce_cache(params29):
    with pytest.raises(TypeError, match="no reduce cache"):
        fuse(params29, w(1, 0), w(1, 0), _cache={})


def test_fuse_symmetry_and_grading(params313):
    labels = alcove_enumerate(params313)
    rng = np.random.default_rng(0)
    idx = rng.choice(len(labels), size=(25, 2))
    for i, j in idx:
        lam, mu = labels[i], labels[j]
        res = fuse(params313, lam, mu)
        assert res == fuse(params313, mu, lam)
        for nu, c in res.items():
            assert c > 0
            assert nu.parity == lam.parity * mu.parity


@pytest.mark.parametrize("family,rank,ell", [
    ("B", 2, 5), ("B", 2, 9), ("B", 3, 7), ("B", 3, 13), ("B", 4, 11), ("B", 5, 13),
    ("C", 2, 9), ("C", 3, 11)])
def test_table_matches_two_stage_everywhere(family, rank, ell):
    """The generator recursion against an all-pairs table from the two-stage oracle.

    The generator rows come from fuse, so the reference must not: at (2,5) and
    (3,7) the vector weight leaves the alcove and the spin row alone generates.
    """
    params = AlcoveParams(make_root_datum(family, rank), ell)
    table = FusionTable.build(params)
    labels = table.labels
    index = {lab: i for i, lab in enumerate(labels)}
    expected = np.zeros_like(table.coeffs)
    for i, lam in enumerate(labels):
        for j in range(i, len(labels)):
            for nu, c in fuse_two_stage(params, lam, labels[j]).items():
                expected[i, j, index[nu]] = expected[j, i, index[nu]] = c
    assert np.array_equal(table.coeffs, expected)


def test_table_widens_past_its_dtype(monkeypatch):
    """Started in int8 at B(4,19), whose max N is 280, the build widens the
    whole table to int16 and equals the int64 build entry for entry."""
    params = AlcoveParams(make_root_datum("B", 4), 19)
    monkeypatch.setattr(fusion, "_TABLE_DTYPE", np.int64)
    wide = FusionTable.build(params)
    monkeypatch.setattr(fusion, "_TABLE_DTYPE", np.int8)
    narrow = FusionTable.build(params)
    assert wide.coeffs.max() == 280 and narrow.coeffs.dtype == np.int16
    assert np.array_equal(narrow.coeffs, wide.coeffs)


def test_table_invariants(table29, table211, table313):
    for table in (table29, table211, table313):
        assert table.check_unit()
        assert table.check_total_symmetry()
        assert table.check_associativity()
        assert table.check_sector_grading()


def _table(family, rank, ell):
    return FusionTable.build(AlcoveParams(make_root_datum(family, rank), ell))


def _perturbed(table, edit):
    coeffs = table.coeffs.copy()
    edit(coeffs)
    return FusionTable(table.params, table.labels, coeffs)


@pytest.mark.parametrize("keep", [(1, 0, 2), (0, 2, 1), (2, 1, 0)])
def test_total_symmetry_fails_when_one_transposition_is_kept(table211, keep):
    """Any two transpositions generate S_3, so a table can break all of them or
    exactly two; a +1 on one (a, b, c) and its image under ``keep`` breaks the
    other two, and the check must fail."""
    abc = (3, 7, 12)

    def bump(coeffs):
        for p in {abc, tuple(abc[i] for i in keep)}:
            coeffs[p] += 1

    bad = _perturbed(table211, bump)
    kept = [t for t in ((1, 0, 2), (0, 2, 1), (2, 1, 0))
            if np.array_equal(bad.coeffs, bad.coeffs.transpose(t))]
    assert kept == [keep]
    assert not bad.check_total_symmetry()


@pytest.mark.parametrize("family,rank,ell", [
    *(("B", k, ell) for k, ell in DEFAULT_GRID if (k, ell) != (4, 17)), ("C", 3, 11), ("C", 4, 11)])
def test_associativity_agrees_with_full_oracle(family, rank, ell):
    """The certificate, the generator identity and the contraction of every pair."""
    table = _table(family, rank, ell)
    assert table.check_associativity() is True
    assert associativity_generator_identity(table) is True
    assert associativity_full(table) is True


@pytest.mark.parametrize("rank,ell,trials", [(2, 9, 40), (3, 13, 40), (4, 15, 40), (4, 17, 20)])
def test_symmetric_perturbations_fail_associativity(rank, ell, trials):
    """A +1 on every permutation of one (a, b, c) keeps total symmetry, not associativity."""
    table = _table("B", rank, ell)
    rng = random.Random(rank * 100 + ell)
    for _ in range(trials):
        abc = [rng.randrange(table.size) for _ in range(3)]

        def bump(coeffs):
            for p in set(itertools.permutations(abc)):
                coeffs[p] += 1

        bad = _perturbed(table, bump)
        assert bad.check_total_symmetry()
        assert not bad.check_associativity(), abc
        assert not (associativity_full(bad) and bad.check_unit()), abc


def _reach_rows(table, v):
    """The generators, and (g, nu - g) for each g with nu - g a label, nu = labels[v]."""
    gens = fusion._generator_indices(table.params.datum, table._index)
    nu = table.labels[v]
    return gens, [(g, table.index(nu - table.labels[g])) for g in gens
                  if nu - table.labels[g] in table.labels]


def _recursion_rows(table):
    """(nu, the recursion's right side for nu or None) for every label nu but
    the unit and the generators, with the generator matrices in float64."""
    N, labels, index = table.coeffs, table.labels, table._index
    unit = table.index(Weight.zero(table.params.rank))
    F = {g: N[g].astype(np.float64) for g in fusion._generator_indices(table.params.datum, index)}
    return F, [(v, fusion._recursion_row(N, labels, index, F, v))
               for v in range(table.size) if v != unit and v not in F]


def _reached(table, v):
    """Whether some generator reaches labels[v]: part 3 for one label."""
    return dict(_recursion_rows(table)[1])[v] is not None


@pytest.mark.parametrize("edit", ["bumped", "later_sigma"])
def test_reachability_rejects_a_bad_generator_product(table313, edit):
    v = table313.size // 2
    gens, rests = _reach_rows(table313, v)
    assert v not in gens and rests
    assert _reached(table313, v)

    def spoil(coeffs):
        for g, rest in rests:
            if edit == "bumped":
                coeffs[g, rest, v] = 2
            else:
                coeffs[g, rest, v + 1:] = np.maximum(coeffs[g, rest, v + 1:], 1)

    bad = _perturbed(table313, spoil)
    assert not _reached(bad, v)
    assert not bad.check_associativity()


def test_relabelled_ring_fails_reachability(table313):
    """The check is sufficient, not necessary: swapping two labels that are
    not generators gives an isomorphic, still associative ring whose
    generator products no longer reach the labels in order."""
    v = table313.size // 2
    gens, _ = _reach_rows(table313, v)
    assert not {v, v + 1} & set(gens)
    perm = np.arange(table313.size)
    perm[[v, v + 1]] = perm[[v + 1, v]]

    def relabel(coeffs):
        coeffs[...] = coeffs[np.ix_(perm, perm, perm)]

    relabelled = _perturbed(table313, relabel)
    assert associativity_full(relabelled) and relabelled.check_unit()
    assert not _parts(relabelled)[2]
    assert not relabelled.check_associativity()


def test_build_raises_where_no_generator_reaches(params29, table29, monkeypatch):
    """Without the spin weight the vector alone reaches no half-integral
    label: the build stops at the first one, and the certificate fails."""
    spin = (1, 1)
    assert spin in _generators(params29.datum)
    monkeypatch.setattr(fusion, "_generators",
                        lambda datum: [g for g in _generators(datum) if g != spin])
    with pytest.raises(AssertionError, match=re.escape(f"no generator reaches nu={w('1/2', '1/2')}")):
        FusionTable.build(params29)
    assert table29.check_associativity() is False


def test_associativity_runs_the_unit_check(table313, monkeypatch):
    unit = table313.index(Weight.zero(3))

    def swap(coeffs):
        coeffs[unit, [1, 2]] = coeffs[unit, [2, 1]]

    assert not _perturbed(table313, swap).check_associativity()
    monkeypatch.setattr(FusionTable, "check_unit", lambda self: False)
    assert not table313.check_associativity()


def test_associativity_asserts_its_float_bound(table29):
    last = table29.size - 1
    coeffs = table29.coeffs.astype(np.int64)
    coeffs[last, last, last] = 2 ** 30
    with pytest.raises(AssertionError, match="inexact"):
        FusionTable(table29.params, table29.labels, coeffs).check_associativity()


def _parts(table):
    """Parts 1 to 4 of check_associativity, each on its own."""
    N = table.coeffs
    unit = table.index(Weight.zero(table.params.rank))
    cyclic = np.array_equal(N[:, unit, :], np.eye(table.size, dtype=np.int64))
    F, rows = _recursion_rows(table)
    reach = all(out is not None for _, out in rows)
    return (table.check_unit() and cyclic,
            all(np.array_equal(f @ h, h @ f) for f, h in itertools.combinations(F.values(), 2)),
            reach, reach and all(np.array_equal(N[v], out) for v, out in rows))


def _refilled(table, spoil):
    """The table with its generator matrices spoiled, and every other label
    but the unit refilled in order by the recursion of part 4."""
    gens, _ = _reach_rows(table, 0)
    coeffs = table.coeffs.astype(np.int64)
    spoil(coeffs, gens)
    bad = FusionTable(table.params, table.labels, coeffs)
    unit = table.index(Weight.zero(table.params.rank))
    F = {g: coeffs[g].astype(np.float64) for g in gens}
    for v in range(table.size):
        if v != unit and v not in F:
            coeffs[v] = fusion._recursion_row(coeffs, table.labels, table._index, F, v)
    return bad


def test_associativity_part_2_rejects_generators_that_do_not_commute(table313):
    """One generator matrix spoiled below its diagonal and off the unit row:
    parts 1, 3 and 4 hold, the ring is not associative, and only part 2 says so."""
    a = table313.size // 2

    def spoil(coeffs, gens):
        coeffs[gens[0], a, a - 1] += 1

    bad = _refilled(table313, spoil)
    assert _parts(bad) == (True, False, True, True)
    assert not bad.check_associativity()
    assert not associativity_full(bad)


def test_associativity_part_1_needs_the_cyclic_vector(table313):
    """L_g + I in place of one generator matrix: the unit, the commuting
    generators, reachability and the recursion all hold, but L_g e_0 is no
    longer e_g, and the ring is not associative."""
    def spoil(coeffs, gens):
        coeffs[gens[0]] += np.eye(table313.size, dtype=np.int64)

    bad = _refilled(table313, spoil)
    assert bad.check_unit()
    assert _parts(bad) == (False, True, True, True)
    assert not bad.check_associativity()
    assert not associativity_full(bad)


def test_associativity_part_4_rejects_a_symmetric_perturbation(table313):
    """A +1 on every permutation of (a, b, c), none of them the unit or a
    generator, leaves the unit, the cyclic vector and the generator matrices
    as they were: only the recursion of part 4 sees it."""
    gens, _ = _reach_rows(table313, 0)
    abc = [v for v in range(1, table313.size) if v not in gens][3:6]

    def bump(coeffs):
        for p in set(itertools.permutations(abc)):
            coeffs[p] += 1

    bad = _perturbed(table313, bump)
    assert bad.check_total_symmetry()
    assert _parts(bad) == (True, True, True, False)
    assert not bad.check_associativity()
    assert not associativity_full(bad)


def test_sector_grading_rejects_a_wrong_parity_entry(table29):
    pars = [lab.parity for lab in table29.labels]
    a, b, c = 0, 0, pars.index(-1)

    def stray(coeffs):
        coeffs[a, b, c] = 1

    assert table29.check_sector_grading()
    assert not _perturbed(table29, stray).check_sector_grading()


def test_fusion_matrix_unit_and_rows(table29):
    assert np.array_equal(table.fusion_matrix(w(0, 0)) if (table := table29) else None,
                          np.eye(12, dtype=np.int64))
    spin = w("1/2", "1/2")
    M = table29.fusion_matrix(spin)
    row = {table29.labels[i] for i in np.flatnonzero(M[:, table29.index(spin)])}
    assert row == {w(0, 0), w(1, 0), w(1, 1)}


def test_fuse_matrix_is_every_generator_row(params313, table313):
    gens = [g for g in map(Weight, _generators(params313.datum)) if params313.contains(g)]
    assert len(gens) == 3
    for g in gens:
        assert np.array_equal(fuse_matrix(params313, g).T, table313.coeffs[table313.index(g)])


def test_fuse_matrix_is_the_column_loop_for_the_c10_vector():
    params = AlcoveParams(make_root_datum("C", 10), 25)
    labels = alcove_enumerate(params)
    index = {lab: i for i, lab in enumerate(labels)}
    vec = params.datum.fundamental_weight_1
    expected = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for j, mu in enumerate(labels):
        for nu, c in fuse(params, vec, mu).items():
            expected[index[nu], j] = c
    assert np.array_equal(fuse_matrix(params, vec), expected)


def test_spin_generates_alcove(table29):
    spin = w("1/2", "1/2")
    M = (table29.fusion_matrix(spin) > 0).astype(np.int64)
    s, cur = 1, M
    nxt = ((cur @ M) > 0).astype(np.int64)
    while not (cur | nxt).all():
        cur = ((nxt @ M) > 0).astype(np.int64)
        nxt = ((cur @ M) > 0).astype(np.int64)
        s += 2
    assert s % 2 == 1 and s <= 2 * table29.size


def test_bratteli_endo_dims(table29):
    spin = w("1/2", "1/2")
    counts, total = bratteli_endo_dim(table29, spin, 0)
    assert counts == {w(0, 0): 1} and total == 1
    counts, total = bratteli_endo_dim(table29, spin, 2)
    assert total == 3  # spin (x) spin has three simple summands, multiplicity free
    V = w("5/2", "3/2")
    counts, total = bratteli_endo_dim(table29, V, 2)
    assert total == 3


def test_json_roundtrip(table29):
    payload = json.loads(table29.to_json())
    assert payload["family"] == "B" and payload["rank"] == 2 and payload["ell"] == 9
    assert len(payload["labels"]) == 12
    N = np.array(payload["N"])
    assert np.array_equal(N, table29.coeffs)
    assert payload["labels"] == [list(lab.doubled) for lab in table29.labels]
    # canonical ordering: graded lexicographic on doubled coordinates
    keys = [(sum(lab), tuple(lab)) for lab in payload["labels"]]
    assert keys == sorted(keys)


def _shifted_vectors(params: AlcoveParams, seed: int):
    """Seeded rho-shifted vectors v = xi + rho (doubled) of lattice weights xi,
    each with the (label, sign) it must reduce to where that is known.

    - 60 plain draws with |v_i| <= 2 ell + 1;
    - 8 far ones, w(lam + rho + 2 ell tau) for an alcove label lam, a finite
      Weyl element w and a translation tau of the affine Weyl group with an
      entry (two for C) of size 2: one affine reflection leaves such a vector
      outside, so the reduction takes two or more, and it ends at
      (lam, sign of w);
    - 12 on a finite wall (a zero or a repeated |v_i|) or an affine one
      (|v_i| = ell for B, |v_i| + |v_j| = 2 ell for C), which reduce to (None, 0).
    """
    family, rank, ell = params.datum.family, params.rank, params.ell
    rng = np.random.default_rng(seed)
    labels = alcove_enumerate(params)
    elements = weyl_elements(rank)
    rho = params.datum.rho.doubled

    def pm():
        return int(rng.choice((1, -1)))

    def plain():
        # doubled entries of xi + rho share one parity: both sectors for B, even for C
        q = int(rng.choice((0, 1))) if family == "B" else 0
        return q, [pm() * (2 * int(rng.integers(0, ell + 1)) + q) for _ in range(rank)]

    for _ in range(60):
        yield "plain", tuple(plain()[1]), None
    for _ in range(8):
        lab = labels[rng.integers(len(labels))]
        i, j = rng.choice(rank, size=2, replace=False)
        # the translations are 2 ell Z^k for B and 2 ell {tau in Z^k : sum even} for C
        tau = [int(t) for t in rng.integers(-2, 3, size=rank)]
        tau[i] = 2 * pm()
        if family == "C":
            tau = [2 * (t // 2) for t in tau]
            tau[j] = 2 * pm()
        w = elements[rng.integers(len(elements))]
        v = w.apply_doubled(tuple(a + b + 2 * ell * t for a, b, t in zip(lab.doubled, rho, tau)))
        yield "far", v, (lab.doubled, w.sign)
    for _ in range(12):
        q, v = plain()
        i, j = rng.choice(rank, size=2, replace=False)
        if family == "B" and q == 1 and rng.random() < 0.5:
            v[i] = pm() * ell
        elif family == "C" and rng.random() < 0.5:
            v[i] = 2 * int(rng.integers(1, ell))
            v[j] = pm() * (2 * ell - v[i])
        elif q == 0 and rng.random() < 0.5:
            v[i] = 0
        else:
            v[j] = pm() * v[i]
        yield "wall", tuple(v), (None, 0)


@pytest.mark.parametrize("family,rank,ell", [("B", 2, 9), ("B", 2, 7), ("C", 2, 9),
                                             ("B", 3, 7), ("C", 3, 7)],
                         ids=["B-9", "B-7", "C-9", "B3-7", "C3-7"])
def test_affine_reduce_against_bfs_oracle(family, rank, ell):
    from oracles import affine_reduce_bfs

    params = AlcoveParams(make_root_datum(family, rank), ell)
    rho = params.datum.rho.doubled
    for kind, v, expected in _shifted_vectors(params, seed=11):
        xi = Weight(tuple(a - b for a, b in zip(v, rho)))
        lab, sign = affine_reduce(params, xi)
        got = (None if lab is None else lab.doubled, sign)
        assert got == affine_reduce_bfs(family, rank, ell, xi.doubled), (kind, v)
        assert expected is None or got == expected, (kind, v)


_REDUCE_CELLS = [("B", 2, 9), ("B", 3, 13), ("B", 4, 15), ("B", 5, 23),
                 ("C", 2, 7), ("C", 3, 11), ("C", 4, 15), ("C", 5, 13),
                 ("B", 6, 13), ("C", 8, 17), ("C", 10, 21)]


@st.composite
def _reduce_batch(draw, ranks=(2, 3, 4, 5), max_rows=12):
    """(params, V): rows of rho-shifted doubled vectors with entries within
    +-8 ell and one parity per row (even for C), some planted on walls."""
    family, rank, ell = draw(st.sampled_from([c for c in _REDUCE_CELLS if c[1] in ranks]))
    bound = 8 * ell
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        par = draw(st.sampled_from((0, 1))) if family == "B" else 0
        v = [2 * x + par for x in draw(st.lists(st.integers(-bound // 2, (bound - par) // 2),
                                                 min_size=rank, max_size=rank))]
        i, j = draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=2, unique=True))
        m, sign = draw(st.integers(-3, 3)), draw(st.sampled_from((1, -1)))
        wall = draw(st.sampled_from(("none", "none", "none", "zero", "equal", "affine")))
        if wall == "zero" and par == 0:
            v[i] = 2 * ell * m
        elif wall == "equal":
            v[j] = sign * v[i] + 2 * ell * m
        elif wall == "affine" and family == "B" and par == 1:
            v[i] = ell * (2 * m + 1)
        elif wall == "affine" and family == "C":
            v[j] = 2 * ell * m - v[i]
        # a shift by 16 ell e_j lies in both translation lattices
        rows.append([(x + bound) % (2 * bound) - bound for x in v])
    return AlcoveParams(make_root_datum(family, rank), ell), np.array(rows, dtype=np.int64)


@given(_reduce_batch())
def test_reduce_rows_closed_form_matches_the_loop(batch):
    params, V = batch
    signs, labels = _reduce_rows(params, V.copy())
    loop_signs, loop_labels = reduce_rows_loop(params, V.copy())
    assert np.array_equal(signs, loop_signs)
    live = signs != 0
    assert np.array_equal(labels[live], loop_labels[live])
    labs = alcove_enumerate(params)
    assert all(Weight(tuple(lab)) in labs for lab in labels[live].tolist())


@st.composite
def _alcove_images(draw, max_rows=12):
    """(params, V, expected): rows that are affine Weyl images of rho-shifted
    alcove labels, at any cell of _REDUCE_CELLS, with expected[i] = (label,
    signature of the element) or None for the rows moved onto a wall.

    Uniform random rows at high rank almost all lie on a wall, so the rows are
    built from the labels: a signed permutation, then a translation in
    2 ell L (L = Z^k for B, the even-sum lattice for C).
    """
    family, rank, ell = draw(st.sampled_from(_REDUCE_CELLS))
    params = AlcoveParams(make_root_datum(family, rank), ell)
    rho = params.datum.rho.doubled
    labels = alcove_enumerate(params)
    rows, expected = [], []
    for _ in range(draw(st.integers(1, max_rows))):
        lab = draw(st.sampled_from(labels)).doubled
        perm = draw(st.permutations(range(rank)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
        shift = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
        if family == "C" and sum(shift) % 2:
            shift[0] += 1
        v = [signs[c] * (lab[p] + rho[p]) + 2 * ell * t for c, (p, t) in enumerate(zip(perm, shift))]
        odd = sum(s < 0 for s in signs) + sum(perm[a] > perm[b] for a in range(rank)
                                              for b in range(a + 1, rank))
        if draw(st.integers(0, 3)) == 0:
            # onto a wall: one entry equal up to sign and translation to another
            i, j = draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=2, unique=True))
            v[j] = draw(st.sampled_from((1, -1))) * v[i] + 2 * ell * draw(st.integers(-2, 2))
            expected.append(None)
        else:
            expected.append((lab, -1 if odd % 2 else 1))
        rows.append(v)
    return params, np.array(rows, dtype=np.int64), expected


@settings(deadline=None)
@given(_alcove_images())
def test_reduce_rows_inverts_affine_weyl_images_at_every_rank(case):
    params, V, expected = case
    signs, labels = _reduce_rows(params, V.copy())
    loop_signs, loop_labels = reduce_rows_loop(params, V.copy())
    assert np.array_equal(signs, loop_signs)
    live = signs != 0
    assert np.array_equal(labels[live], loop_labels[live])
    for s, lab, exp in zip(signs.tolist(), labels.tolist(), expected):
        assert s == 0 if exp is None else (tuple(lab), s) == exp


@settings(max_examples=40, deadline=None)
@given(_reduce_batch(ranks=(2, 3), max_rows=4))
def test_reduce_rows_closed_form_matches_bfs(batch):
    params, V = batch
    family, rank, ell = params.datum.family, params.rank, params.ell
    rho = np.array(params.datum.rho.doubled)
    for v, s, lab in zip(V, *_reduce_rows(params, V)):
        got = (None, 0) if s == 0 else (tuple(lab.tolist()), int(s))
        assert got == affine_reduce_bfs(family, rank, ell, tuple((v - rho).tolist()))


def _scalar_rows(params, pairs):
    """(P, n) from classical_tensor_scalar, each classical summand reduced by the loop."""
    labels = alcove_enumerate(params)
    index = {lab.doubled: c for c, lab in enumerate(labels)}
    rho = np.array(params.datum.rho.doubled)
    out = np.zeros((len(pairs), len(labels)), dtype=np.int64)
    for p, (lam, mu) in enumerate(pairs):
        classical = classical_tensor_scalar(params.datum, lam, mu)
        V = np.array([nu.doubled for nu in classical], dtype=np.int64) + rho
        for s, lab, c in zip(*reduce_rows_loop(params, V), classical.values()):
            if s:
                out[p, index[tuple(lab.tolist())]] += s * c
    return out


@pytest.mark.parametrize("family,rank,ell", [("B", 3, 13), ("C", 3, 11)])
def test_pair_kernels_do_not_depend_on_chunk_boundaries(monkeypatch, family, rank, ell):
    params = AlcoveParams(make_root_datum(family, rank), ell)
    labels = alcove_enumerate(params)
    rng = random.Random(rank * ell)
    unit = Weight.zero(rank)
    pairs = [tuple(rng.sample(labels, 2)) for _ in range(12)]
    pairs += [(b, a) for a, b in pairs[:6]] + pairs[:3]
    pairs += [(unit, unit), (unit, labels[-1]), (labels[-1], unit), (labels[-1], labels[-1])]
    rng.shuffle(pairs)
    fused, two_stage = fuse_pairs(params, pairs), fuse_two_stage_pairs(params, pairs)
    assert np.array_equal(fused, _scalar_rows(params, pairs))
    assert np.array_equal(two_stage, fused)
    for rows in (1, 7, 64):
        monkeypatch.setattr(fusion, "_CHUNK_ROWS", rows)
        assert np.array_equal(fuse_pairs(params, pairs), fused), rows
        assert np.array_equal(fuse_two_stage_pairs(params, pairs), fused), rows


def test_pair_kernels_reject_non_labels(params29):
    with pytest.raises(DomainError):
        fuse_pairs(params29, [(w(1, 0), w(1, 0)), (w(3, 0), w(1, 0))])
    assert fuse_pairs(params29, []).shape == (0, 12)
    assert fuse_two_stage_pairs(params29, []).shape == (0, 12)


def test_pair_kernels_assert_their_output(monkeypatch, params29):
    """A negative coefficient or a reduced weight off the alcove is an internal error."""
    real = fusion._reduce_rows
    pairs = [(w(1, 0), w(1, 0))]

    def negated(params, V):
        signs, labels = real(params, V)
        return -signs, labels

    def off_alcove(params, V):  # (8, 8) is dominant but outside C_9
        return real(params, V)[0], np.full_like(V, 16)

    monkeypatch.setattr(fusion, "_reduce_rows", negated)
    with pytest.raises(AssertionError, match="negative fusion coefficient"):
        fuse_pairs(params29, pairs)
    monkeypatch.setattr(fusion, "_reduce_rows", off_alcove)
    for kernel in (fuse_pairs, fuse_two_stage_pairs):
        with pytest.raises(AssertionError, match="outside the alcove"):
            kernel(params29, pairs)


@pytest.mark.parametrize("family,rank,ell", [("B", 2, 9), ("B", 4, 15), ("B", 5, 13), ("C", 3, 11),
                                             ("C", 11, 27), ("C", 20, 45)])
def test_label_positions_is_the_label_dict(family, rank, ell):
    """The array lookup agrees with a {doubled: index} dict on the labels and
    on shifted, negative and off-grid rows.  Each label plus (2 ell + 1, -1,
    0, ...) has that label's key but is off the grid, so only the row compare
    rejects it.  The keys of C_11 at 27 and C_20 at 45 wrap in int64."""
    params = AlcoveParams(make_root_datum(family, rank), ell)
    labels = np.array([lab.doubled for lab in alcove_enumerate(params)], dtype=np.int64)
    index = {row: c for c, row in enumerate(map(tuple, labels.tolist()))}
    same_key = np.zeros(rank, dtype=np.int64)
    same_key[:2] = 2 * ell + 1, -1
    rng = np.random.default_rng(0)
    rows = np.concatenate([labels, labels + 2 * np.eye(rank, dtype=np.int64)[-1], -labels,
                           labels + same_key, labels + 2 * ell,
                           rng.integers(-3 * ell, 3 * ell, size=(500, rank))])
    got = label_positions(params, rows)
    assert got.tolist() == [index.get(row, -1) for row in map(tuple, rows.tolist())]
    assert np.array_equal(got[:len(labels)], np.arange(len(labels)))
    assert (got[3 * len(labels):5 * len(labels)] == -1).all()
    assert ((2 * ell + 1) ** rank > 2 ** 63) == ((family, rank) in {("C", 11), ("C", 20)})


def test_type_c_fusion_table():
    from bcfusion.fusion import FusionTable

    params = AlcoveParams(make_root_datum("C", 2), 9)
    table = FusionTable.build(params)
    assert table.size == 12
    assert table.check_unit()
    assert table.check_total_symmetry()
    assert table.check_associativity()
    # boxes mod 2 grade the type C ring
    sizes = np.array([sum(lab.doubled) // 2 for lab in table.labels])
    parity_ok = (sizes[:, None, None] + sizes[None, :, None] - sizes[None, None, :]) % 2 == 0
    assert not (table.coeffs * ~parity_ok).any()
    labels = table.labels
    for i, lam in enumerate(labels):
        for mu in labels[i:]:
            assert fuse(params, lam, mu) == fuse_two_stage(params, lam, mu)


def test_type_c_classical_tensor_against_oracle():
    from oracles import char_product_decompose

    datum = make_root_datum("C", 2)
    weights = dominant_weights_up_to(datum, 3)
    for i, lam in enumerate(weights):
        for mu in weights[i:]:
            assert classical_tensor(datum, lam, mu) == char_product_decompose(datum, lam, mu)


def test_type_c_vector_rule():
    # V_(1,0) (x) V_mu in C_2 at ell=9: add/remove one box, capped by the alcove
    params = AlcoveParams(make_root_datum("C", 2), 9)
    vec = Weight((2, 0))
    assert fuse(params, vec, vec) == {Weight((0, 0)): 1, Weight((4, 0)): 1, Weight((2, 2)): 1}
    # at (5,0) both additions (6,0) and (5,1) land on the wall mu_1+mu_2 = 6
    assert fuse(params, vec, Weight((10, 0))) == {Weight((8, 0)): 1}


def test_fusion_matrix_unknown_label(table29):
    with pytest.raises(DomainError):
        table29.fusion_matrix(w(4, 0))
    with pytest.raises(DomainError):
        table29.coefficient(w(1, 0), w(1, 0), w(7, 0))
