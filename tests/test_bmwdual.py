import cmath
import json
import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bcfusion.bmwdual import (BOX, EMPTY, FerrersDiagram, bar_rows,
                              box_graph, braiding_eig_sq,
                              dim_from_eigs, duality_report,
                              eig_square_set_check, gamma_bratteli, gamma_set,
                              gamma_rows, generator_weight,
                              markov_trace_g, psi_table, ranklevel_check, row_array,
                              trace_match, transpose_rows, type_c_alcove, verify_psi_fusion,
                              vsq_summands)
from bcfusion import bmwdual
from bcfusion.cli import main
from bcfusion.errors import ConfigurationError, DomainError, SingularParameterError
from bcfusion.fusion import AlcoveParams, FusionTable, alcove_enumerate, bratteli_endo_dim, fuse_matrix
from bcfusion.qchar import QuantumParams, admissible_z, quantum_integer
from bcfusion.rootdata import Weight, make_root_datum
from bcfusion.symmetry import InvolutionData
from bcfusion.unitarity import audit

from conftest import w
from oracles import (bar_map, box_graph_neighbors, box_neighbors, col2, diagram_as_c_weight,
                     gamma_counts, gamma_set_brute, in_gamma, psi, psi_fusion_pairs, transpose, width)


def d(*rows):
    return FerrersDiagram(tuple(rows))


@pytest.fixture(scope="module")
def table27():
    return FusionTable.build(AlcoveParams(make_root_datum("B", 2), 7))


def test_ferrers_validation():
    with pytest.raises(DomainError):
        FerrersDiagram((1, 2))
    with pytest.raises(DomainError):
        FerrersDiagram((2, 0))
    assert d(3, 1).col1 == 2 and col2(d(3, 1)) == 1 and d(3, 1).size == 4
    assert transpose(d(3, 1)) == d(2, 1, 1)
    assert transpose(EMPTY) == EMPTY


def test_gamma_set_29():
    got = gamma_set(2, 9)
    assert len(got) == 12
    assert got == (EMPTY, d(1), d(1, 1), d(2), d(1, 1, 1), d(2, 1),
                   d(1, 1, 1, 1), d(2, 1, 1), d(2, 2), d(1, 1, 1, 1, 1),
                   d(2, 1, 1, 1), d(2, 2, 1))
    assert all(lam.col1 + col2(lam) <= 5 and width(lam) <= 2 for lam in got)


def test_gamma_set_27_single_column():
    assert gamma_set(2, 7) == (EMPTY, d(1), d(1, 1), d(1, 1, 1), d(1, 1, 1, 1), d(1, 1, 1, 1, 1))


def test_gamma_set_rejects_tiny_ell():
    # the walk is lazy, but the check is not: each call raises before any iteration
    for call in (gamma_set, gamma_rows, audit):
        with pytest.raises(ConfigurationError, match=r"need ell > 2k\+1, got k=2, ell=5"):
            call(2, 5)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_gamma_set_matches_brute_force(k):
    # same diagrams in the same (size, rows) order as growing all of them and sorting
    for ell in range(2 * k + 3, 32):
        assert gamma_set(k, ell) == gamma_set_brute(k, ell), (k, ell)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_even_row_walk_matches_brute_force(k):
    # the audit's walk: Gamma's even sizes as row tuples, in (size, rows) order
    for ell in range(2 * k + 3, 32):
        walked = [FerrersDiagram(rows) for same_size in islice(gamma_rows(k, ell), 0, None, 2)
                  for rows in same_size]
        even = [tau for tau in gamma_set_brute(k, ell) if tau.size % 2 == 0]
        assert walked == even, (k, ell)


@pytest.mark.parametrize("k,ell", [(2, 9), (5, 21), (7, 61), (9, 121)])
def test_walk_matches_column_counts_on_deep_sizes(k, ell):
    # past where gamma_set_brute can go: each size lex-ascending, in Gamma, and as many as counted
    sizes = list(islice(gamma_rows(k, ell), 30))
    counts = gamma_counts(k, ell, range(len(sizes)))
    for size, (same_size, count) in enumerate(zip(sizes, counts)):
        assert all(a < b for a, b in zip(same_size, same_size[1:])), (k, ell, size)
        diagrams = [FerrersDiagram(rows) for rows in same_size]
        assert all(d.size == size and in_gamma(k, ell, d) for d in diagrams), (k, ell, size)
        assert len(same_size) == count, (k, ell, size)


@pytest.mark.parametrize("k,ell", [(2, 7), (3, 15), (4, 17)])
def test_walk_stops_where_the_count_reaches_zero(k, ell):
    lengths = [len(same_size) for same_size in gamma_rows(k, ell)]
    assert gamma_counts(k, ell, range(len(lengths) + 1)) == lengths + [0]


@pytest.mark.parametrize("k,ell", [(2, 7), (2, 11), (3, 13), (4, 17), (5, 21), (6, 27)])
def test_array_bar_is_bar_map(k, ell):
    diagrams = gamma_set_brute(k, ell)
    rows = row_array([tau.rows for tau in diagrams], 2 * k + 1)
    assert [tuple(r) for r in rows.tolist()] == [
        tau.rows + (0,) * (2 * k + 1 - tau.col1) for tau in diagrams]
    bars = bar_rows(k, rows)
    assert bars.dtype == np.int64 and bars.shape == (len(diagrams), k)
    assert [Weight(tuple(b)) for b in bars.tolist()] == [bar_map(k, tau) for tau in diagrams]


@pytest.mark.parametrize("k,ell", [(2, 7), (2, 9), (2, 11), (3, 13), (3, 15)])
def test_gamma_matches_alcove_size(k, ell):
    params = AlcoveParams(make_root_datum("B", k), ell)
    assert len(gamma_set(k, ell)) == len(alcove_enumerate(params))


def test_bar_map():
    assert bar_map(2, d(1, 1, 1, 1, 1)) == w(0, 0)   # first column 5 -> min(0, 5) = 0
    assert bar_map(2, d(1)) == w(1, 0)
    assert bar_map(2, EMPTY) == w(0, 0)
    assert bar_map(2, d(2, 2, 1)) == w(2, 2)         # col1 = 3 -> min(2, 3) = 2 rows kept
    with pytest.raises(DomainError):
        bar_map(2, d(2, 2, 1, 1, 1, 1))              # col1 + col2 = 6 + 2 > 5


def test_psi_examples():
    assert psi(2, 9, d(1)) == w("5/2", "3/2")
    assert psi(2, 9, EMPTY) == w(0, 0)
    assert psi(2, 7, d(1, 1, 1, 1, 1)) == w("3/2", "3/2")
    assert psi(2, 7, d(1, 1)) == w(1, 1)
    assert psi(2, 7, d(1, 1, 1)) == w("1/2", "1/2")
    with pytest.raises(DomainError):
        psi(2, 9, d(3))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_array_psi_is_the_diagram_psi(k):
    # every cell of rank k up to ell = 23, in Gamma's (size, rows) order
    for ell in range(2 * k + 3, 24, 2):
        expected = [(tau, psi(k, ell, tau)) for tau in gamma_set_brute(k, ell)]
        assert list(psi_table(k, ell).items()) == expected, (k, ell)


@pytest.mark.parametrize("phi", [lambda k, ell, rows: rows,
                                 lambda k, ell, rows: ell - 2 * k - rows[:, ::-1] + 2 * ell],
                         ids=["phi_left_out", "odd_sizes_escape"])
def test_psi_that_is_not_a_bijection_raises(monkeypatch, phi):
    """Without phi the odd sizes land on labels the even sizes already take;
    with phi moved off the alcove they land nowhere.  Both raise."""
    bmwdual._gamma.cache_clear()
    monkeypatch.setattr(bmwdual, "phi_rows", phi)
    try:
        with pytest.raises(AssertionError,
                           match=r"Psi is not a bijection onto C_ell at \(k,ell\)=\(2,9\)"):
            psi_table(2, 9)
    finally:
        bmwdual._gamma.cache_clear()


@pytest.mark.parametrize("k,ell", [(2, 7), (2, 9), (2, 11), (3, 13)])
def test_psi_is_bijection(k, ell):
    mapping = psi_table(k, ell)
    assert len(mapping) == len(set(mapping.values()))
    assert psi(k, ell, BOX) == generator_weight(k, ell)


def test_box_neighbors():
    assert box_neighbors(2, 9, EMPTY) == (d(1),)
    assert set(box_neighbors(2, 9, d(1))) == {EMPTY, d(2), d(1, 1)}
    assert set(box_neighbors(2, 7, d(1))) == {EMPTY, d(1, 1)}  # [2] excluded by width cap
    for nb in box_neighbors(2, 9, d(2, 1)):
        assert abs(nb.size - 3) == 1 and in_gamma(2, 9, nb)


@pytest.mark.parametrize("k,ell", [(2, 7), (2, 9), (3, 13), (4, 15), (4, 17), (5, 21)])
def test_box_graph_matches_neighbor_oracle(k, ell):
    """The containment test gives the graph that adding and removing boxes gives."""
    diagrams, A = box_graph(k, ell)
    expected_diagrams, expected = box_graph_neighbors(k, ell)
    assert diagrams == expected_diagrams
    assert A.dtype == expected.dtype and np.array_equal(A, expected)
    assert not A.flags.writeable


@pytest.mark.parametrize("k,ell", [(2, 7), (2, 9), (2, 11), (3, 13)])
def test_psi_fusion_graph(k, ell):
    table = FusionTable.build(AlcoveParams(make_root_datum("B", k), ell))
    assert _psi_fusion(table) and psi_fusion_pairs(table)


def _psi_fusion(table):
    """verify_psi_fusion on the table's fusion matrix of V."""
    k, ell = table.params.datum.rank, table.params.ell
    return verify_psi_fusion(k, ell, table.fusion_matrix(generator_weight(k, ell)))


def _with_v_row(table, edit):
    """The table with edit applied to V's row coeffs[V] = N_V^T (only that row)."""
    coeffs = table.coeffs.copy()
    edit(coeffs[table.index(generator_weight(2, 9))])
    return FusionTable(table.params, table.labels, coeffs)


def test_psi_fusion_graph_rejects_swapped_columns(table29):
    # columns of N_V are rows of coeffs[V]; the unit's column is e_V, the spin's is not
    spin = table29.index(w("1/2", "1/2"))

    def swap(row):
        row[[0, spin]] = row[[spin, 0]]

    swapped = _with_v_row(table29, swap)
    assert not _psi_fusion(swapped) and not psi_fusion_pairs(swapped)


def test_psi_fusion_graph_rejects_a_raised_entry(table29):
    V = table29.index(generator_weight(2, 9))

    def raise_one(row):
        assert row[0, V] == 1  # V (x) 1 = V
        row[0, V] = 2

    raised = _with_v_row(table29, raise_one)
    assert not _psi_fusion(raised) and not psi_fusion_pairs(raised)


def test_box_graph_is_built_once_and_read_only():
    diagrams, A = box_graph(2, 9)
    assert box_graph(2, 9)[1] is A and diagrams == gamma_set(2, 9)
    assert not A.flags.writeable
    with pytest.raises(ValueError):
        A[0, 0] = 1


def test_bratteli_walks_reject_negative_n(table29):
    # both walks share one path count, so both raise; gamma_bratteli once returned n = 0's counts
    with pytest.raises(DomainError):
        gamma_bratteli(2, 9, -1)
    with pytest.raises(DomainError):
        bratteli_endo_dim(table29, generator_weight(2, 9), -1)


def test_bratteli_equality(table29):
    k, ell = 2, 9
    mapping = psi_table(k, ell)
    V = generator_weight(k, ell)
    for n in range(7):
        counts_b, total_b = bratteli_endo_dim(table29, V, n)
        counts_g, total_g = gamma_bratteli(k, ell, n)
        assert total_b == total_g
        assert {mapping[dd]: c for dd, c in counts_g.items()} == counts_b
    # n = 2 from the unit: always three simple summands
    _, total2 = gamma_bratteli(k, ell, 2)
    assert total2 == 3


def test_bratteli_spin_example(table29):
    # generator (5/2,3/2), n = 3: same total as the diagram-side walk
    _, total_b = bratteli_endo_dim(table29, w("5/2", "3/2"), 3)
    _, total_g = gamma_bratteli(2, 9, 3)
    assert total_b == total_g


def test_bmw_trace_values(params29):
    q = QuantumParams(params29, 1).q
    r = -q ** 4  # the BC-case BMW parameter r = -q^{2k}
    tr = markov_trace_g(q, r)
    assert tr * (r - 1 / r + q - 1 / q) == pytest.approx(r * (q - 1 / q), rel=1e-12)
    with pytest.raises(SingularParameterError):
        markov_trace_g(1.0 + 0j, 1.0 + 0j)


def test_bmw_cubic_roots(params29):
    """{-q^{-2k}, q, -q^{-1}} are exactly the roots of (x - r^{-1})(x - q)(x + q^{-1})."""
    for z in admissible_z(9):
        q = QuantumParams(params29, z).q
        r = -q ** 4
        for root in (-q ** (-4), q, -1 / q):
            val = (root - 1 / r) * (root - q) * (root + 1 / q)
            assert abs(val) < 1e-12


def test_braiding_eig_sq_examples(params29):
    q1 = QuantumParams(params29, 1)
    vec = w(1, 0)
    assert braiding_eig_sq(q1, vec, vec, w(2, 0)) == pytest.approx(q1.q_power(4))
    # nu = unit in lam (x) lam: q^{-2 c_lam}
    assert braiding_eig_sq(q1, vec, vec, w(0, 0)) == pytest.approx(q1.q_power(-16))
    V = w("5/2", "3/2")
    assert braiding_eig_sq(q1, V, V, w(2, 0)) == pytest.approx(q1.q_power(-50))
    assert q1.q_power(-50) == pytest.approx(q1.q_power(4))  # mod q^18 = 1
    with pytest.raises(DomainError):
        braiding_eig_sq(q1, vec, vec, w(2, 1))


@pytest.mark.parametrize("k,ell", [(2, 9), (2, 11), (3, 13), (3, 15), (4, 17)])
def test_eig_square_multiset(k, ell):
    params = AlcoveParams(make_root_datum("B", k), ell)
    table = FusionTable.build(params)
    for z in admissible_z(ell):
        assert eig_square_set_check(QuantumParams(params, z), table)["match"]


@pytest.mark.parametrize("k,ell", [(2, 9), (3, 13)])
def test_eig_square_set_check_agrees_with_braiding_eig_sq(k, ell):
    params = AlcoveParams(make_root_datum("B", k), ell)
    table = FusionTable.build(params)
    V = generator_weight(k, ell)
    for z in admissible_z(ell):
        qp = QuantumParams(params, z)
        squares = eig_square_set_check(qp, table)["squares"]
        for nu in vsq_summands(k):
            assert squares[nu] == braiding_eig_sq(qp, V, V, nu)


def test_eig_square_set_check_needs_the_matching_table(table29, table313, params313):
    with pytest.raises(DomainError):
        eig_square_set_check(QuantumParams(params313, 1), table29)
    # at (3, 9) V is a label but the summand (2,0,0) of V (x) V leaves the alcove
    params39 = AlcoveParams(make_root_datum("B", 3), 9)
    with pytest.raises(DomainError):
        eig_square_set_check(QuantumParams(params39, 1), FusionTable.build(params39))


def test_eig_square_minus_branch(params313, table313):
    """Odd rank with q^ell = -1 carries the minus signs on the squares."""
    check = eig_square_set_check(QuantumParams(params313, 1), table313)
    assert check["match"]
    q = QuantumParams(params313, 1)
    plus_only = [q.q_power(e) for e in (-24, 4, -4)]
    got = list(check["squares"].values())
    assert not all(any(abs(g - t) < 1e-9 for t in plus_only) for g in got)


def test_dim_from_eigs_identities():
    for (k, ell, z) in [(2, 9, 1), (2, 11, 1), (2, 9, 2), (3, 13, 1)]:
        q = cmath.exp(1j * math.pi * z / ell)
        qt = -q * q
        val = dim_from_eigs(-1 / qt, qt, -qt ** (-2 * k))
        qint = lambda n: (qt ** n - qt ** (-n)) / (qt - 1 / qt)
        assert abs(val) == pytest.approx(abs(qint(-2 * k) / qint(1) + 1), abs=1e-9)


def test_dim_from_eigs_type_c():
    # type C eigenvalues {q, -q^{-1}, -q^{-2r-1}} at (k, ell) = (2, 9), r = 2, z = 1
    q = cmath.exp(1j * math.pi / 9)
    val = dim_from_eigs(q, -1 / q, -q ** (-5))
    assert abs(val) == pytest.approx(1.879385241571816, abs=1e-9)


@given(st.floats(0, 2 * math.pi, allow_nan=False))
def test_dim_from_eigs_phase_invariance(theta):
    phase = cmath.exp(1j * theta)
    base = (cmath.exp(0.3j), cmath.exp(-1.1j), cmath.exp(0.7j))
    a = dim_from_eigs(*base)
    b = dim_from_eigs(*(phase * c for c in base))
    assert abs(a) == pytest.approx(abs(b), rel=1e-9)


def test_dim_from_eigs_singular():
    with pytest.raises(SingularParameterError):
        dim_from_eigs(1 + 0j, -1 + 0j, 1 + 0j)  # c1^{-1} + c2^{-1} = 0


@pytest.mark.parametrize("k,ell", [(2, 9), (2, 11)])
def test_trace_match_even_rank(k, ell):
    params = AlcoveParams(make_root_datum("B", k), ell)
    for z in admissible_z(ell):
        res = trace_match(QuantumParams(params, z))
        assert res["applicable"] and res["matched"] and res["tilde_matched"]


def test_trace_match_odd_rank(params313):
    for z in admissible_z(13):
        res = trace_match(QuantumParams(params313, z))
        if z % 2 == 0:
            assert res["applicable"] and res["matched"]
        else:
            assert not res["applicable"]


def test_parameter_change_identity(params29):
    """[2k]_{q~} = -[4k]_q / [2]_q under q~ = -q^2."""
    for z in admissible_z(9):
        qp = QuantumParams(params29, z)
        qt = -qp.q ** 2
        lhs = (qt ** 4 - qt ** (-4)) / (qt - 1 / qt)
        rhs = -quantum_integer(qp, 8) / quantum_integer(qp, 2)
        assert lhs.real == pytest.approx(rhs, abs=1e-9)
        assert abs(lhs.imag) < 1e-9


# dual ranks 2, 3, 2, 3, then 8, 9 and 10, where the whole C_r Weyl group would
# have 10321920, 185794560 and 3715891200 elements
@pytest.mark.parametrize("k,ell,expected_size", [(2, 9, 12), (2, 11, 20), (3, 11, 20), (3, 13, 40),
                                                 (2, 21, 90), (3, 25, 440), (2, 25, 132)])
def test_ranklevel(k, ell, expected_size):
    report = ranklevel_check(k, ell)
    assert report["gamma_size"] == report["c_alcove_size"] == expected_size
    assert report["cardinalities_equal"]
    assert report["transpose_is_graph_iso"]
    assert report["graph_isomorphic"]


def test_c2_alcove_is_level_capped_partitions():
    paramsC = type_c_alcove(2, 9)
    labels = alcove_enumerate(paramsC)
    assert len(labels) == 12
    assert {lab.entries for lab in labels} == {
        (a, b) for a in range(6) for b in range(a + 1) if a + b <= 5}


def test_ranklevel_requires_room():
    with pytest.raises(ConfigurationError):
        ranklevel_check(2, 7)  # dual rank would be 1


def test_transpose_lands_in_c_alcove():
    paramsC = type_c_alcove(2, 9)
    labels = set(alcove_enumerate(paramsC))
    for lam in gamma_set(2, 9):
        cw = diagram_as_c_weight(transpose(lam), 2)
        assert cw is not None and cw in labels


@pytest.mark.parametrize("k,ell", [(2, 9), (2, 11), (3, 13), (3, 25), (2, 27), (4, 21)])
def test_array_transpose_is_the_diagram_transpose(k, ell):
    r = (ell - 2 * k - 1) // 2
    diagrams = gamma_set_brute(k, ell)
    heights = transpose_rows(row_array([tau.rows for tau in diagrams], 2 * k + 1), r)
    assert heights.dtype == np.int64 and heights.shape == (len(diagrams), r)
    assert [Weight(tuple(2 * x for x in row)) for row in heights.tolist()] == [
        diagram_as_c_weight(transpose(tau), r) for tau in diagrams]


@pytest.mark.parametrize("broken", ["columns_reversed", "two_diagrams_swapped"])
def test_a_broken_transpose_fails_ranklevel_and_duality(monkeypatch, broken):
    """Reversed column heights leave the C alcove; swapping the transposes of
    [1,1,1,1] and [2,2], of one size but with other neighbours, keeps a
    bijection that does not carry the box graph."""
    real = bmwdual.transpose_rows
    diagrams = gamma_set(2, 9)
    swap = np.arange(len(diagrams))
    i, j = diagrams.index(d(1, 1, 1, 1)), diagrams.index(d(2, 2))
    swap[[i, j]] = swap[[j, i]]

    patched = {"columns_reversed": lambda rows, width: real(rows, width)[:, ::-1],
               "two_diagrams_swapped": lambda rows, width: real(rows, width)[swap]}
    monkeypatch.setattr(bmwdual, "transpose_rows", patched[broken])
    report = ranklevel_check(2, 9)
    assert report["cardinalities_equal"]
    assert not report["transpose_is_graph_iso"] and not report["graph_isomorphic"]
    assert main(["duality", "--rank", "2", "--ell", "9"]) == 1


def test_duality_report():
    report = duality_report(2, 9)
    assert report["k"] == 2 and report["ell"] == 9 and report["r"] == 2
    assert report["gamma_size"] == report["alcove_size"] == 12
    assert report["homeq_ok"]
    assert report["ranklevel"]["cardinalities_equal"]
    assert len(report["psi"]) == 12
    rows, doubled = report["psi"][1]
    assert rows == [1] and doubled == [5, 3]


@pytest.mark.parametrize("k,ell", [(2, 9), (3, 13), (4, 17)])
def test_generator_matrix_is_the_phi_permuted_vector_matrix(k, ell):
    """N_{V,mu}^nu = N_{Lambda_1,mu}^{phi(nu)}: duality_report reads V's matrix off
    the vector weight's instead of fusing the large weight V."""
    params = AlcoveParams(make_root_datum("B", k), ell)
    vector = fuse_matrix(params, params.datum.fundamental_weight_1)
    permuted = vector[list(InvolutionData.build(params).perm)]
    assert np.array_equal(permuted, fuse_matrix(params, generator_weight(k, ell)))


def test_cli_duality_at_dual_rank_10(capsys):
    assert main(["duality", "--rank", "2", "--ell", "25", "--format", "json"]) == 0
    ranklevel = json.loads(capsys.readouterr().out)["ranklevel"]
    assert ranklevel["rank_c"] == 10 and ranklevel["graph_isomorphic"]


@pytest.mark.parametrize("failure", [{"cardinalities_equal": False, "graph_isomorphic": False},
                                     {"cardinalities_equal": True, "graph_isomorphic": False}],
                         ids=["cardinalities", "transposition"])
def test_failed_ranklevel_check_fails_duality(monkeypatch, failure):
    report = {"k": 2, "ell": 9, "rank_c": 2, "gamma_size": 12, "c_alcove_size": 12,
              "transpose_is_graph_iso": False, **failure}
    monkeypatch.setattr(bmwdual, "ranklevel_check", lambda k, ell: report)
    assert main(["duality", "--rank", "2", "--ell", "9"]) == 1


def test_skipped_ranklevel_check_passes_duality(capsys):
    # ell = 7 leaves dual rank 1, so the rank-level check is skipped
    assert main(["duality", "--rank", "2", "--ell", "7", "--format", "json"]) == 0
    assert "skipped" in json.loads(capsys.readouterr().out)["ranklevel"]
