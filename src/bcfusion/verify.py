"""The full invariant suite for one (rank, ell) instance of the type B family.

Each check returns a CheckResult; the CLI prints one line per check and
exits nonzero if any fails.  A check whose hypothesis fails at the cell is
marked skipped: it prints as SKIP and counts apart from the checks that ran.

Tolerances follow the module contracts: integer identities are exact, single
character evaluations use 1e-9, composed identities 1e-7 relative.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .bmwdual import (eig_square_set_check, gamma_bratteli, generator_weight, psi_table,
                      ranklevel_check, trace_match, verify_psi_fusion, vsq_summands)
from .errors import ConfigurationError
from .fusion import AlcoveParams, FusionTable, bratteli_endo_dim, fuse_pairs, fuse_two_stage_pairs
from .qchar import (QuantumParams, admissible_z, character_law_defect, dim_mu_vector,
                    pf_certify_unique, positive_character, quantum_integer, weyl_products)
from .rootdata import Weight, make_root_datum, root_pairings
from .symmetry import InvolutionData, phi_sign, verify_simple_current
from .unitarity import audit

REL_TOL = 1e-7
ABS_TOL = 1e-9

DEFAULT_GRID = ((2, 9), (2, 11), (2, 13), (3, 13), (3, 15), (4, 17))


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False  # did not run; ok stays True so the exit code ignores it


def _rel_close(a: np.ndarray, b: np.ndarray) -> bool:
    """|a - b| <= REL_TOL (1 + max(|a|, |b|)) at every entry."""
    return bool(np.all(np.abs(a - b) <= REL_TOL * (1.0 + np.maximum(np.abs(a), np.abs(b)))))


def run_suite(k: int, ell: int, seed: int = 0) -> list[CheckResult]:
    params = AlcoveParams(make_root_datum("B", k), ell)
    table = FusionTable.build(params)
    labels = table.labels
    datum = params.datum
    results: list[CheckResult] = []

    def add(name: str, ok: bool, detail: str = ""):
        results.append(CheckResult(name, bool(ok), detail))

    def skip(name: str, why: str):
        results.append(CheckResult(name, True, why, skipped=True))

    add("unit", table.check_unit())
    add("total_symmetry", table.check_total_symmetry())
    add("associativity", table.check_associativity())
    add("sector_grading", table.check_sector_grading())

    # decomposition rules for the spin and vector generators, read from their
    # table rows, which are fuse's output verbatim (FusionTable.build):
    # N[g][lam, nu] = N_{g,lam}^nu is 1 exactly when nu - lam lies in the Weyl
    # orbit of g, and 0 otherwise
    N = table.coeffs
    doubled = np.array([lam.doubled for lam in labels], dtype=np.int64)

    def orbit_rule(g: Weight) -> np.ndarray:
        """The 0/1 matrix [nu - lam in W g] over label pairs (lam, nu)."""
        orbit = datum.weyl_orbit(g)
        # balanced base-b digits: x -> x . b^j is injective on |x_j| <= off,
        # which holds for every orbit row and every difference of labels
        off = max(int(doubled.max()), int(np.abs(orbit).max()))
        powers = (2 * off + 1) ** np.arange(k, dtype=np.int64)
        keys = doubled @ powers
        return np.isin(keys[None, :] - keys[:, None], orbit @ powers).astype(np.int64)

    spin, vec = datum.spin_weight, datum.fundamental_weight_1
    add("spin_rule", np.array_equal(N[table.index(spin)], orbit_rule(spin)))
    if params.contains(vec):
        # on the integer sector, where V_vec's zero weight survives iff mu_k > 0
        integer = doubled[:, 0] % 2 == 0
        expected = orbit_rule(vec) + np.diag(doubled[:, -1] > 0)
        add("vector_rule", np.array_equal(N[table.index(vec)][integer], expected[integer]))
    else:
        skip("vector_rule", "skipped: the vector weight leaves the alcove at this ell")

    data = InvolutionData.build(params)
    add("simple_current", verify_simple_current(table, data))

    # multiplying by the current: N_phi(lam) = N_gamma N_lam, and conjugation fixes N_lam.
    # Once N_gamma is phi's permutation matrix, (N_gamma A)[nu] = A[phi^-1(nu)] and
    # (A N_gamma)[:, mu] = A[:, phi(mu)], so both identities are index permutations
    # of coeffs[i] = N_lam^T.
    perm = np.array(data.perm)
    inv = np.argsort(perm)
    ok = np.array_equal(table.fusion_matrix(data.gamma), data.permutation_matrix()) and all(
        np.array_equal(N[perm[i]], N[i][:, inv]) and np.array_equal(N[i][np.ix_(perm, inv)], N[i])
        for i in range(table.size))
    add("current_multiplication", ok)

    # characters as arrays in alcove order, one kernel call each
    dim = np.array(list(positive_character(params).values()))
    add("positive_character_law", character_law_defect(dim, table) < REL_TOL)
    weyl_sum = dim_mu_vector(QuantumParams(params, 1), spin, labels)
    add("positive_character_weyl_sum", np.all(np.abs(dim - weyl_sum) < ABS_TOL * (1 + np.abs(dim))))

    # N_spin irreducible (the certificate) and Dim a positive eigenvector of it,
    # so Dim is its Perron-Frobenius vector and the only positive character
    cert = pf_certify_unique(table)
    ok = (dim > 0).all() and _rel_close(table.fusion_matrix(spin) @ dim, dim[table.index(spin)] * dim)
    add("perron_frobenius_unique", ok, f"s={cert.s}")

    # |dim^mu| is phi-invariant for half-integral mu, across z; only mu with a
    # regular evaluation point qualify (vanishing factors are z-independent)
    rho = datum.rho
    shifts = (spin, rho, rho + vec)
    pairings = root_pairings(datum, [(mu + rho).doubled for mu in shifts])
    samples = [mu for mu, row in zip(shifts, pairings) if (row // 2 % ell != 0).all()]
    zs = admissible_z(ell)
    vals = np.abs([dim_mu_vector(QuantumParams(params, z), mu, labels)
                   for z in zs for mu in samples]).reshape(-1, len(labels))
    add("phi_character_symmetry", _rel_close(vals, vals[:, perm]), f"{len(samples)} shifts")

    # qdim(phi(lam)) = phi_sign * qdim(lam), every label and z in one kernel call
    qdims = weyl_products(params, labels, zs)
    signs = np.array([phi_sign(k, QuantumParams(params, z).q_ell_sign) for z in zs])
    add("phi_sign_table", _rel_close(qdims[perm], signs * qdims))

    diagrams_defined = ell > 2 * k + 1
    if diagrams_defined:
        mapping = psi_table(k, ell)
        add("psi_bijection", len(mapping) == table.size)
        V = generator_weight(k, ell)
        add("psi_fusion_graph", verify_psi_fusion(k, ell, table.fusion_matrix(V)))

        ok = True
        for n in range(7):
            counts_b, total_b = bratteli_endo_dim(table, V, n)
            counts_g, total_g = gamma_bratteli(k, ell, n)
            mapped = {mapping[d]: c for d, c in counts_g.items()}
            ok = ok and total_b == total_g and mapped == counts_b
        add("bratteli_paths", ok)
    else:
        for name in ("psi_bijection", "psi_fusion_graph", "bratteli_paths"):
            skip(name, "skipped: no diagram labels at ell <= 2k+1")

    vsq_in_alcove = all(params.contains(nu) for nu in vsq_summands(k))
    if vsq_in_alcove:
        ok = all(eig_square_set_check(QuantumParams(params, z), table)["match"]
                 for z in admissible_z(ell))
        add("eigenvalue_squares", ok)
    else:
        skip("eigenvalue_squares",
             "skipped: V (x) V degenerates (a summand leaves the alcove at this ell)")

    if diagrams_defined:
        ok = True
        for z, dim_v in zip(zs, weyl_products(params, [V], zs)[0].tolist()):
            pz = QuantumParams(params, z)
            lhs = abs(dim_v)
            rhs = abs(quantum_integer(pz, 4 * k) / quantum_integer(pz, 2) + 1)
            ok = ok and abs(lhs - rhs) < ABS_TOL * (1 + rhs)
            # parameter change q~ = -q^2: [2k]_q~ / [1]_q~ = -[4k]_q / [2]_q
            qt = -pz.q ** 2
            tilde = (qt ** (2 * k) - qt ** (-2 * k)) / (qt - 1 / qt)
            ok = ok and abs(tilde + quantum_integer(pz, 4 * k) / quantum_integer(pz, 2)) < 1e-8
        add("generator_dim_identity", ok)
    else:
        skip("generator_dim_identity", "skipped: no diagram generator at ell <= 2k+1")

    if vsq_in_alcove:
        applicable = [z for z in admissible_z(ell) if k % 2 == 0 or z % 2 == 0]
        ok = all(trace_match(QuantumParams(params, z))["matched"] for z in applicable)
        add("markov_trace", ok, f"{len(applicable)} parameters")
    else:
        skip("markov_trace", "skipped: V (x) V degenerates at this ell")

    try:
        rl = ranklevel_check(k, ell)
        add("ranklevel_duality", rl["cardinalities_equal"] and rl["graph_isomorphic"],
            f"transpose={rl['transpose_is_graph_iso']}")
    except ConfigurationError as exc:
        skip("ranklevel_duality", f"skipped: {exc}")

    # production paths (fuse_pairs and the table rows) vs the two-stage oracle,
    # one batched call per route
    rng = random.Random(seed)
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i:]]
    if len(pairs) > 300:
        pairs = rng.sample(pairs, 300)
    expected = fuse_two_stage_pairs(params, pairs)
    rows = N[[table.index(a) for a, _ in pairs], [table.index(b) for _, b in pairs]]
    ok = np.array_equal(fuse_pairs(params, pairs), expected) and np.array_equal(rows, expected)
    add("two_stage_oracle", ok, f"{len(pairs)} pairs")

    if 2 * (2 * k + 1) < ell:
        report = audit(k, ell)
        detail = "" if report.all_strict else \
            "strict bound fails only at z=ell-1 (h > Dim(box)); separation and witnesses hold"
        add("unitarity_audit", report.passed and report.strict_below_boundary, detail)
    else:
        skip("unitarity_audit", "hypothesis 2(2k+1) < ell fails; not applicable")

    return results


def format_results(k: int, ell: int, results: list[CheckResult]) -> str:
    ran = [r for r in results if not r.skipped]
    skipped = len(results) - len(ran)
    header = f"verify B_{k} at ell={ell}: {sum(r.ok for r in ran)}/{len(ran)} checks pass"
    lines = [header + (f", {skipped} skipped" if skipped else "")]
    for r in results:
        status = "SKIP" if r.skipped else "PASS" if r.ok else "FAIL"
        suffix = f"  ({r.detail})" if r.detail else ""
        lines.append(f"  [{status}] {r.name}{suffix}")
    return "\n".join(lines)
