"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Integer identities are exact; trigonometric ones use the stated
tolerances.  Criterion 10 is split: the literal all-z strict inequality is
expected to fail at z = ell-1 (see notes in the unitarity module) and is
marked xfail(strict=True); the separation + witness form that the
non-unitarity argument actually needs passes and is asserted.
"""
import time

import numpy as np
import pytest

from bcfusion.bmwdual import (dim_from_eigs, eig_square_set_check, gamma_bratteli, gamma_set,
                              generator_weight, markov_trace_g, psi_table, ranklevel_check,
                              trace_match, verify_psi_fusion)
from bcfusion.fusion import (AlcoveParams, FusionTable, alcove_enumerate, bratteli_endo_dim,
                             classical_tensor, fuse, fuse_two_stage)
from bcfusion.qchar import (QuantumParams, admissible_z, character_law_defect, dim_mu_vector,
                            pf_certify_unique, positive_character, qdim, quantum_integer)
from bcfusion.rootdata import make_root_datum
from bcfusion.symmetry import InvolutionData, phi_sign, verify_simple_current
from bcfusion.unitarity import audit_grid

from oracles import char_product_decompose, dominant_weights_up_to, pf_certify_powers

INSTANCES = ((2, 9), (2, 11), (3, 13))


def _params(k, ell):
    return AlcoveParams(make_root_datum("B", k), ell)


def _report(num, ok, text):
    print(f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_01_fusion_ring_validity():
    details = []
    for (k, ell) in INSTANCES:
        start = time.perf_counter()
        table = FusionTable.build(_params(k, ell))
        ok = (table.check_unit() and table.check_total_symmetry()
              and table.check_associativity() and table.check_sector_grading())
        elapsed = time.perf_counter() - start
        details.append(f"({k},{ell}): n={table.size}, {elapsed:.2f}s")
        assert ok, f"ring invariants failed at ({k},{ell})"
        assert elapsed < 60.0, f"({k},{ell}) took {elapsed:.1f}s"
    _report(1, True, "unit/symmetry/associativity/grading exact; " + "; ".join(details))


def test_criterion_02_oracle_equivalence(params29):
    labels = alcove_enumerate(params29)
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i:]]
    ok = all(fuse(params29, a, b) == fuse_two_stage(params29, a, b) for a, b in pairs)
    _report(2, ok, f"direct fused Racah-Speiser == two-stage antisymmetrization on all "
                   f"{len(pairs)} label pairs at (2,9)")


def test_criterion_03_classical_oracle():
    total = 0
    for rank in (2, 3):
        datum = make_root_datum("B", rank)
        weights = dominant_weights_up_to(datum, 3)
        for i, lam in enumerate(weights):
            for mu in weights[i:]:
                assert classical_tensor(datum, lam, mu) == char_product_decompose(datum, lam, mu)
                total += 1
    _report(3, True, f"classical_tensor == character-product decomposition on {total} pairs, "
                     f"k in {{2,3}}, |lam|,|mu| <= 3, exact")


def test_criterion_04_simple_current(table29, table211, table313):
    for table in (table29, table211, table313):
        data = InvolutionData.build(table.params)
        assert verify_simple_current(table, data), table.params
    _report(4, True, "N_gamma is the permutation matrix of phi and N_gamma^2 = 1 at "
                     "(2,9), (2,11), (3,13), exact")


def test_criterion_05_positivity_uniqueness(table29, table211, table313):
    for table in (table29, table211, table313):
        vec = positive_character(table.params)
        assert all(v > 0 for v in vec.values())
        assert character_law_defect(np.array(list(vec.values())), table) < 1e-7
        cert = pf_certify_unique(table)  # raises unless N_spin is irreducible
        assert cert.s % 2 == 1
        _, eigenvector = pf_certify_powers(table)
        assert eigenvector == pytest.approx(np.array(list(vec.values())), rel=1e-6, abs=1e-6)
    _report(5, True, "spin character at z=1 positive, satisfies the ring law to 1e-7, "
                     "and is the unique positive eigenvector (PF certificate)")


def test_criterion_06_involution_symmetry():
    for (k, ell) in INSTANCES:
        params = _params(k, ell)
        data = InvolutionData.build(params)
        labels = alcove_enumerate(params)
        datum = params.datum
        samples = [datum.spin_weight, datum.rho, datum.rho + datum.fundamental_weight_1]
        for z in admissible_z(ell):
            q = QuantumParams(params, z)
            for mu in samples:
                vals = dim_mu_vector(q, mu, labels)
                for i in range(len(labels)):
                    a, b = abs(vals[i]), abs(vals[data.perm[i]])
                    assert abs(a - b) <= 1e-7 * (1 + max(a, b)), (k, ell, z, mu)
    # the sign table, for k = 2..5 with both signs of q^ell
    for k in (2, 3, 4, 5):
        ell = 4 * k + 1
        params = _params(k, ell)
        data = InvolutionData.build(params)
        labels = alcove_enumerate(params)
        for z in (1, 2):
            q = QuantumParams(params, z)
            sign = phi_sign(k, q.q_ell_sign)
            for i, lam in enumerate(labels):
                lhs = qdim(q, labels[data.perm[i]])
                rhs = sign * qdim(q, lam)
                assert abs(lhs - rhs) <= 1e-7 * (1 + abs(rhs)), (k, ell, z, lam)
    _report(6, True, "|dim^mu| phi-invariant (mu in {spin, rho, rho+e1}, all z, 1e-7) at "
                     "(2,9),(2,11),(3,13); sign table exact for k=2..5, both q^ell signs")


def test_criterion_07_psi_duality():
    for (k, ell) in ((2, 7), (2, 9), (2, 11), (3, 13)):
        params = _params(k, ell)
        table = FusionTable.build(params)
        mapping = psi_table(k, ell)          # raises unless a bijection onto C_ell
        assert len(mapping) == table.size == len(gamma_set(k, ell))
        V = generator_weight(k, ell)
        assert verify_psi_fusion(k, ell, table.fusion_matrix(V))
        for n in range(7):
            counts_b, total_b = bratteli_endo_dim(table, V, n)
            counts_g, total_g = gamma_bratteli(k, ell, n)
            assert total_b == total_g
            assert {mapping[d]: c for d, c in counts_g.items()} == counts_b
    _report(7, True, "|Gamma|=|C_ell|, Psi bijective, box graph == fusion graph, Bratteli "
                     "path counts equal for n <= 6 at (2,7),(2,9),(2,11),(3,13), exact")


def test_criterion_08_eigenvalue_arithmetic():
    for (k, ell) in INSTANCES:
        params = _params(k, ell)
        table = FusionTable.build(params)
        V = generator_weight(k, ell)
        for z in admissible_z(ell):
            q = QuantumParams(params, z)
            assert eig_square_set_check(q, table)["match"], (k, ell, z)
            lhs = abs(qdim(q, V))
            rhs = abs(quantum_integer(q, 4 * k) / quantum_integer(q, 2) + 1)
            assert abs(lhs - rhs) < 1e-9 * (1 + rhs), (k, ell, z)
            qt = -q.q ** 2
            val = dim_from_eigs(-1 / qt, qt, -qt ** (-2 * k))
            qint = lambda n: (qt ** n - qt ** (-n)) / (qt - 1 / qt)
            target = abs(qint(-2 * k) / qint(1) + 1)
            assert abs(abs(val) - target) < 1e-9 * (1 + target), (k, ell, z)
    _report(8, True, "braiding eigenvalue squares = {+-q^-8k, +-q^4, +-q^-4} with the "
                     "k-parity/q^ell sign rule (set equality); generator dimension and "
                     "dim_from_eigs magnitudes to 1e-9, all z at (2,9),(2,11),(3,13)")


def test_criterion_09_ranklevel_duality():
    for (k, ell) in INSTANCES:
        report = ranklevel_check(k, ell)
        assert report["cardinalities_equal"], (k, ell)
        assert report["graph_isomorphic"], (k, ell)
        assert report["transpose_is_graph_iso"], (k, ell)
    _report(9, True, "type C_(ell-2k-1)/2 alcove matches |Gamma(k,ell)| and diagram "
                     "transposition is a generator fusion-graph isomorphism at all three instances")


@pytest.mark.xfail(strict=True, reason=(
    "spec defect: |h(z)| < Dim(box) fails at z = ell-1 in every conclusive cell "
    "(h(ell-1) = sin(2k pi/ell)/sin(pi/ell) + 1 > Dim(box) by angle addition); the "
    "separation h(z) != Dim(box) that the non-unitarity theorem consumes does hold "
    "everywhere and is asserted by criterion 10s"))
def test_criterion_10_unitarity_failure_literal():
    reports = audit_grid(max_ell=25)
    bad = [(r.k, r.ell, row.z, row.margin)
           for r in reports for row in r.per_z if not (row.strict and row.margin > 1e-9)]
    ok = not bad and all(r.all_witnessed for r in reports)
    _report("10", ok, f"literal |h(z)| < Dim(box) with margin > 1e-9 at every admissible z "
                      f"(violations: {bad[:3]}{'...' if len(bad) > 3 else ''})")


def test_criterion_10s_unitarity_failure_sound():
    start = time.perf_counter()
    reports = audit_grid(max_ell=25)
    elapsed = time.perf_counter() - start
    cells = sorted((r.k, r.ell) for r in reports)
    for r in reports:
        assert r.conclusive
        assert r.all_witnessed, (r.k, r.ell)
        assert r.all_distinct, (r.k, r.ell)
        assert r.strict_below_boundary, (r.k, r.ell)
        for row in r.per_z:
            if row.z <= r.ell - 2:
                assert row.margin > 1e-9, (r.k, r.ell, row.z)
            else:
                assert abs(row.h) > row.dim_box + 1e-9  # the boundary overshoot
    assert elapsed < 120.0, f"grid took {elapsed:.1f}s"
    _report("10s", True, f"strict margin > 1e-9 for z <= ell-2, separation at every z, "
                         f"negative even-sector witness everywhere; {len(cells)} cells "
                         f"(k up to 5, ell <= 25) in {elapsed:.1f}s")


def test_criterion_11_bmw_trace():
    for (k, ell) in ((2, 9), (2, 11)):
        params = _params(k, ell)
        for z in admissible_z(ell):
            res = trace_match(QuantumParams(params, z))
            assert res["applicable"] and res["matched"], (k, ell, z)
            best = min(res["choices"], key=lambda c: c["error"])
            assert best["error"] < 1e-9, (k, ell, z, best["error"])
            # the matching parameters are the reparameterized BC pair (q~, -q~^{2k})
            assert res["tilde_matched"], (k, ell, z)
            qt = -QuantumParams(params, z).q ** 2
            expected = markov_trace_g(qt, -qt ** (2 * k))
            matching = [c for c in res["choices"] if c["error"] < 1e-9 and c["tilde"]]
            assert matching and abs(matching[0]["weighted_sum"] - expected) < 1e-9
    _report(11, True, "categorical weighted sum of braiding eigenvalues matches the Markov "
                      "trace value (T2) to 1e-9 for one of the four sign choices, all z at "
                      "(2,9) and (2,11)")
