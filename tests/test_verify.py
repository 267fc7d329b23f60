import numpy as np
import pytest

import bcfusion
from bcfusion import fusion, qchar, verify
from bcfusion.bmwdual import box_graph
from bcfusion.fusion import FusionTable
from bcfusion.rootdata import Weight
from bcfusion.verify import DEFAULT_GRID, CheckResult, format_results, run_suite

EXPECTED_CHECKS = {
    "unit", "total_symmetry", "associativity", "sector_grading",
    "spin_rule", "vector_rule", "simple_current", "current_multiplication",
    "positive_character_law", "positive_character_weyl_sum", "perron_frobenius_unique",
    "phi_character_symmetry", "phi_sign_table", "psi_bijection", "psi_fusion_graph",
    "bratteli_paths", "eigenvalue_squares", "generator_dim_identity", "markov_trace",
    "ranklevel_duality", "two_stage_oracle", "unitarity_audit",
}


def test_suite_covers_all_checks_and_passes():
    results = run_suite(2, 9)
    assert {r.name for r in results} == EXPECTED_CHECKS
    assert all(r.ok for r in results)


def test_suite_never_reaches_the_two_stage_route(monkeypatch):
    """The two-stage route is the tests' oracle only: every check passes with it raising."""
    def forbidden(*args):
        raise AssertionError("verify reached the two-stage route")

    for name in ("_classical_rows", "fuse_two_stage_pairs", "fuse_two_stage", "classical_tensor"):
        monkeypatch.setattr(fusion, name, forbidden)
        if hasattr(bcfusion, name):
            monkeypatch.setattr(bcfusion, name, forbidden)
    results = run_suite(2, 9)
    assert {r.name for r in results} == EXPECTED_CHECKS
    assert all(r.ok for r in results)


def test_suite_builds_the_box_graph_once():
    box_graph.cache_clear()
    run_suite(2, 9)
    assert box_graph.cache_info().misses == 1


@pytest.mark.parametrize("generator,check", [((1, 1), "spin_rule"), ((2, 0), "vector_rule")])
def test_generator_rules_read_the_table(monkeypatch, generator, check):
    """spin_rule and vector_rule judge the table's generator rows, so a wrong row fails them."""
    build = FusionTable.build

    def bumped(cls, params):
        table = build(params)
        coeffs = table.coeffs.copy()
        g = table.index(Weight(generator))
        coeffs[g, 0, g] += 1  # g (x) 1 = 2 g
        return cls(params, table.labels, coeffs)

    monkeypatch.setattr(FusionTable, "build", classmethod(bumped))
    results = {r.name: r.ok for r in run_suite(2, 9)}
    assert not results[check]


def test_perron_frobenius_unique_reads_dim(monkeypatch):
    """perron_frobenius_unique fails once Dim is no eigenvector of N_spin: one
    non-unit entry scaled by 1 + 1e-4."""
    exact = verify.positive_character

    def perturbed(params):
        dim = exact(params)
        last = list(dim)[-1]
        dim[last] *= 1 + 1e-4
        return dim

    monkeypatch.setattr(verify, "positive_character", perturbed)
    results = {r.name: r for r in run_suite(2, 9)}
    assert not results["perron_frobenius_unique"].ok
    assert results["perron_frobenius_unique"].detail.startswith("s=")


def test_suite_on_degenerate_instance():
    """ell = 7 at rank 2: V (x) V loses a summand; affected checks skip, rest pass."""
    results = run_suite(2, 7)
    assert all(r.ok for r in results)
    by_name = {r.name: r for r in results}
    assert "skipped" in by_name["eigenvalue_squares"].detail
    assert "skipped" in by_name["markov_trace"].detail
    assert "skipped" in by_name["ranklevel_duality"].detail
    assert by_name["psi_fusion_graph"].ok


def test_format_results_lines():
    results = [CheckResult("alpha", True), CheckResult("beta", False, "why")]
    text = format_results(2, 9, results)
    assert "1/2 checks pass" in text and "skipped" not in text
    assert "[PASS] alpha" in text and "[FAIL] beta  (why)" in text


SKIPPED = {
    (2, 5): {"vector_rule", "psi_bijection", "psi_fusion_graph", "bratteli_paths",
             "eigenvalue_squares", "generator_dim_identity", "markov_trace",
             "ranklevel_duality", "unitarity_audit"},
    (4, 15): {"unitarity_audit"},
}


@pytest.mark.parametrize("k,ell", sorted(SKIPPED))
def test_skipped_checks_print_as_skip(k, ell):
    """A check that did not run is flagged, keeps its detail, and never prints as PASS."""
    results = run_suite(k, ell)
    assert {r.name for r in results if r.skipped} == SKIPPED[k, ell]
    assert all(r.ok for r in results)
    lines = format_results(k, ell, results).splitlines()
    skipped = len(SKIPPED[k, ell])
    ran = len(results) - skipped
    assert lines[0] == f"verify B_{k} at ell={ell}: {ran}/{ran} checks pass, {skipped} skipped"
    for r, line in zip(results, lines[1:]):
        suffix = f"  ({r.detail})" if r.detail else ""
        assert line == f"  [{'SKIP' if r.skipped else 'PASS'}] {r.name}{suffix}"
        if r.skipped:
            assert r.detail.startswith("skipped") or r.detail.endswith("not applicable")


def test_default_grid_shape():
    assert all(ell % 2 == 1 and k >= 2 for (k, ell) in DEFAULT_GRID)


def _sampled_rows_check(k=2, ell=9):
    return next(r for r in run_suite(k, ell) if r.name == "two_stage_oracle")


def test_sampled_rows_fail_on_one_changed_table_entry(monkeypatch):
    """A table entry off by one in a sampled row fails the Verlinde comparison,
    though fuse_pairs and the characters are untouched."""
    build = FusionTable.build

    def bumped(cls, params):
        table = build(params)
        coeffs = table.coeffs.copy()
        a, b = verify.sampled_pairs(table.labels)[-1]
        coeffs[table.index(a), table.index(b), 0] += 1
        return cls(params, table.labels, coeffs)

    monkeypatch.setattr(FusionTable, "build", classmethod(bumped))
    check = _sampled_rows_check()
    assert not check.ok
    assert check.detail.startswith("78 pairs, orthogonality ")


def test_sampled_rows_fail_on_one_changed_fuse_pairs_entry(monkeypatch):
    """fuse_pairs is judged too: one entry off by one in its last sampled row fails."""
    exact = verify.fuse_pairs

    def bumped(params, pairs):
        rows = exact(params, pairs)
        rows[-1, 0] += 1
        return rows

    monkeypatch.setattr(verify, "fuse_pairs", bumped)
    check = _sampled_rows_check()
    assert not check.ok
    assert check.detail.startswith("78 pairs, orthogonality ")


def _scale_row(chars):
    chars[3] *= 2


def _move_one_entry(chars):
    chars[3, 5] += 1e-3


def _swap_two_labels(chars):
    chars[:, [1, 2]] = chars[:, [2, 1]]


@pytest.mark.parametrize("edit,gate", [
    (_move_one_entry, "orthogonality"),
    # still orthogonal, but 2 chi_3 is no character: its Verlinde terms double
    (_scale_row, "rounding"),
    # the characters of the ring with labels 1 and 2 exchanged: orthogonal, and
    # their rows are integers, but they are that ring's fusion rules
    (_swap_two_labels, "exact"),
], ids=["one-entry", "scaled", "relabelled"])
def test_sampled_rows_fail_on_a_perturbed_character(monkeypatch, edit, gate):
    """A perturbed character table fails the check: through the margin it
    moves, and through the exact comparison of the rounded rows where it
    moves neither."""
    exact = qchar.character_table

    def perturbed(alcove):
        chars = exact(alcove)
        edit(chars)
        return chars

    monkeypatch.setattr(qchar, "character_table", perturbed)
    check = _sampled_rows_check()
    assert not check.ok
    margins = dict(part.split(" ") for part in check.detail.split(", ")[1:])
    orthogonality, rounding = float(margins["orthogonality"]), float(margins["rounding"])
    failed = ("orthogonality" if orthogonality >= verify.ORTHOGONALITY_TOL
              else "rounding" if rounding >= verify.ROUNDING_TOL else "exact")
    assert failed == gate


def test_sampled_rows_fail_without_every_character(monkeypatch):
    """One character short of the labels is a FAIL that says so, not a crash."""
    exact = qchar.character_table
    monkeypatch.setattr(qchar, "character_table", lambda alcove: exact(alcove)[1:])
    check = _sampled_rows_check()
    assert (check.ok, check.detail) == (False, "11 characters for 12 labels")


def test_sampled_pairs_are_every_pair_or_300():
    labels = list(range(30))
    assert verify.sampled_pairs(labels[:12]) == [(a, b) for i, a in enumerate(labels[:12])
                                                 for b in labels[i:12]]
    pairs = verify.sampled_pairs(labels, seed=3)
    assert len(pairs) == len(set(pairs)) == 300 and pairs == verify.sampled_pairs(labels, seed=3)
    assert pairs != verify.sampled_pairs(labels, seed=4)
