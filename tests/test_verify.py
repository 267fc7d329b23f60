import pytest

from bcfusion import verify
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
