"""Diagram labels, the bar/Psi correspondence, BMW scalar identities, and
the type C rank-level duality check.

The diagram side is built purely combinatorially.  ``gamma_rows`` walks
Gamma(k, ell) as row tuples, one size at a time, each size the children of
the one before under the parent rule (remove a box of the last row), and
``gamma_set`` wraps them as ``FerrersDiagram``s.  Every map into an alcove
is one array operation on padded (m, 2k+1) int64 rows (``row_array``)
followed by ``fusion.label_positions``: bar is ``bar_rows``, Psi adds
``symmetry.phi_rows`` on the odd sizes, and the type C side reads twice the
column heights (``transpose_rows``).  The box graph is a containment test
on Ferrers diagrams (one holds the other row by row and has one more box),
so comparing its fusion graph with the quantum-group side under Psi is a
genuine two-sided test rather than a tautology.  Every graph claim reads
one ``box_graph`` per (k, ell): the Psi graph and rank-level duality are
each a fusion matrix permuted into diagram order (by Psi, resp. by
transposition) and compared with it, and the Bratteli counts walk it.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ConfigurationError, DomainError, NotABijectionError, SingularParameterError
from .fusion import (AlcoveParams, FusionTable, _path_counts, alcove_enumerate, fuse, fuse_matrix,
                     label_positions)
from .qchar import QuantumParams, twist_exponent, weyl_products
from .rootdata import Weight, make_root_datum
from .symmetry import InvolutionData, phi_rows, phi_weight


@dataclass(frozen=True)
class FerrersDiagram:
    """A partition drawn as a diagram; rows are the weakly decreasing parts."""

    rows: tuple[int, ...] = ()

    def __post_init__(self):
        if any(r <= 0 for r in self.rows) or any(
                self.rows[i] < self.rows[i + 1] for i in range(len(self.rows) - 1)):
            raise DomainError(f"rows must be weakly decreasing positive ints, got {self.rows}")

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def col1(self) -> int:
        """Height of the first column."""
        return len(self.rows)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.rows)) + "]" if self.rows else "[]"


BOX = FerrersDiagram((1,))
EMPTY = FerrersDiagram(())


def gamma_set(k: int, ell: int) -> tuple[FerrersDiagram, ...]:
    """Gamma(k, ell), the diagrams with col1 + col2 <= 2k+1 and width <= (ell-2k-1)/2,
    in (size, rows) order: ``gamma_rows``' tuples as ``FerrersDiagram``s."""
    return tuple(FerrersDiagram(rows) for same_size in gamma_rows(k, ell) for rows in same_size)


def gamma_rows(k: int, ell: int) -> Iterator[list[tuple[int, ...]]]:
    """The row tuples of Gamma(k, ell), one lex-ascending list per size 0, 1,
    2, ... in turn, so their concatenation is Gamma in (size, rows) order.

    Every nonempty diagram has one parent, itself less a box of its last row,
    and Gamma is an order ideal of Young's lattice, so each size is the
    children of the size before; the walk stops at the first size with none.
    A parent has at most two children: a new last row of one box, when
    col1 + col2 < 2k+1, and one more box on its last row, when that row is
    the first or shorter than the one above, is shorter than the width, and
    is longer than 1 or col1 + col2 < 2k+1.  Parents in lex order, each
    giving its new-row child first, keep every size lex-ascending: two
    parents of one size first differ before the earlier one's last row, and
    a child changes only its parent's last row or the row after it.  Raises
    ``ConfigurationError`` when called, not on first iteration.
    """
    if ell <= 2 * k + 1:
        raise ConfigurationError(f"need ell > 2k+1, got k={k}, ell={ell}")
    return _parent_rule_walk(2 * k + 1, (ell - 2 * k - 1) // 2)


def _parent_rule_walk(budget: int, width: int) -> Iterator[list[tuple[int, ...]]]:
    size: list[tuple[int, ...]] = [()]
    while size:
        yield size
        children = []
        for rows in size:
            # col1 + col2: a row of 1 box costs one unit of the budget, a longer row two
            cost = 2 * len(rows) - rows.count(1)
            if cost < budget and width:
                children.append(rows + (1,))
            if rows:
                last = rows[-1]
                if (last < width and (len(rows) == 1 or last < rows[-2])
                        and (last > 1 or cost < budget)):
                    children.append(rows[:-1] + (last + 1,))
        size = children


def row_array(rows: list[tuple[int, ...]], width: int) -> np.ndarray:
    """Row tuples as an (m, width) int64 array, each padded with zeros."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    out = np.zeros((len(rows), width), dtype=np.int64)
    out[np.arange(width) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    return out


def bar_rows(k: int, rows: np.ndarray) -> np.ndarray:
    """The bar map from O(2k+1) to so(2k+1) diagrams: twice the first
    min(2k+1 - col1, col1) rows of each row of ``rows``, (m, 2k+1) int64
    padded with zeros and within col1 + col2 <= 2k+1, as (m, k) int64."""
    col1 = (rows > 0).sum(axis=1)
    m = np.minimum(2 * k + 1 - col1, col1)
    return np.where(np.arange(k) < m[:, None], 2 * rows[:, :k], 0)


def generator_weight(k: int, ell: int) -> Weight:
    """phi(Lambda_1), the BMW-side generator's image."""
    return phi_weight(k, ell, Weight((2,) + (0,) * (k - 1)))


@lru_cache(maxsize=None)
def _gamma(k: int, ell: int) -> tuple[tuple[FerrersDiagram, ...], np.ndarray]:
    """Gamma(k, ell) once per (k, ell), from one ``gamma_set`` call: the
    diagrams and their rows padded to 2k+1, read-only."""
    diagrams = gamma_set(k, ell)
    rows = row_array([d.rows for d in diagrams], 2 * k + 1)
    rows.setflags(write=False)
    return diagrams, rows


def _psi_positions(k: int, ell: int) -> np.ndarray:
    """The ``alcove_enumerate`` index of each Psi label (bar, then phi on the
    odd sizes) in ``_gamma`` order; raises ``NotABijectionError`` unless Psi is
    a bijection onto C_ell.  ``_gamma`` and the box graph do not need Psi."""
    params = AlcoveParams(make_root_datum("B", k), ell)
    rows = _gamma(k, ell)[1]
    labels = bar_rows(k, rows)
    odd = rows.sum(axis=1) % 2 == 1
    labels[odd] = phi_rows(k, ell, labels[odd])
    positions = label_positions(params, labels)
    if not np.array_equal(np.sort(positions), np.arange(len(alcove_enumerate(params)))):
        raise NotABijectionError(f"Psi is not a bijection onto C_ell at (k,ell)=({k},{ell})")
    return positions


def psi_table(k: int, ell: int) -> dict[FerrersDiagram, Weight]:
    """Psi on all of Gamma(k, ell), a bijection onto C_ell."""
    labels = alcove_enumerate(AlcoveParams(make_root_datum("B", k), ell))
    return {d: labels[p] for d, p in zip(_gamma(k, ell)[0], _psi_positions(k, ell).tolist())}


@lru_cache(maxsize=None)
def box_graph(k: int, ell: int) -> tuple[tuple[FerrersDiagram, ...], np.ndarray]:
    """Gamma(k, ell) with its one-box adjacency matrix, built once per (k, ell)
    and returned read-only.

    mu is lam plus one box exactly when |mu| = |lam| + 1 and mu contains lam,
    row by row; the rows are padded with zeros to the 2k+1 that col1 allows.
    """
    diagrams, rows = _gamma(k, ell)
    sizes = rows.sum(axis=1)
    below = (sizes[:, None] + 1 == sizes[None, :]) & (rows[:, None] <= rows[None, :]).all(axis=2)
    A = (below | below.T).astype(np.int64)
    A.setflags(write=False)
    return diagrams, A


def gamma_bratteli(k: int, ell: int, n: int) -> tuple[dict[FerrersDiagram, int], int]:
    """Path counts of length n from the empty diagram in the box graph."""
    diagrams, A = box_graph(k, ell)
    return _path_counts(A, diagrams, diagrams.index(EMPTY), n)


def verify_psi_fusion(k: int, ell: int, M: np.ndarray) -> bool:
    """Box rule vs fusion with V = V_phi(Lambda_1): mu ~ lam iff N_{V,Psi(lam)}^{Psi(mu)} = 1.

    M is V's fusion matrix over ``alcove_enumerate`` order, (M)[nu, mu] =
    N_{V,mu}^nu.  One compare of M, permuted to diagram order by Psi, with
    the box adjacency.  Psi's positions are a bijection onto every label, so
    a match also forces every entry of M to be 0 or 1.
    """
    P = _psi_positions(k, ell)
    return bool(np.array_equal(M[np.ix_(P, P)], box_graph(k, ell)[1]))


# -- BMW scalar identities ---------------------------------------------------

def markov_trace_g(q: complex, r: complex) -> complex:
    """(T2): tr(g_i) = r (q - q^-1) / (r - r^-1 + q - q^-1)."""
    den = r - 1 / r + q - 1 / q
    if abs(den) < 1e-12:
        raise SingularParameterError("Markov trace denominator vanishes")
    return r * (q - 1 / q) / den


def dim_from_eigs(c1: complex, c2: complex, c3: complex) -> complex:
    """Generator dimension from the three braiding eigenvalues (one sign branch)."""
    den = c3 * (1 / c1 + 1 / c2)
    if abs(c3) < 1e-12 or abs(den) < 1e-12:
        raise SingularParameterError("vanishing denominator in dim_from_eigs")
    return (c3 ** 2 + c1 * c2 - c3 * (c1 + c2)) / den


def braiding_eig_sq(params: QuantumParams, lam: Weight, mu: Weight, nu: Weight) -> complex:
    """Square of the braiding eigenvalue on V_nu inside V_lam (x) V_mu: q^{c_nu-c_lam-c_mu}."""
    return _eig_sq(params, fuse(params.alcove, lam, mu).get(nu, 0), lam, mu, nu)


def _eig_sq(params: QuantumParams, multiplicity: int,
            lam: Weight, mu: Weight, nu: Weight) -> complex:
    """braiding_eig_sq given N_{lam,mu}^nu, the multiplicity of V_nu in V_lam (x) V_mu."""
    if multiplicity <= 0:
        raise DomainError(f"{nu} does not appear in {lam} (x) {mu}")
    datum = params.datum
    e = twist_exponent(datum, nu) - twist_exponent(datum, lam) - twist_exponent(datum, mu)
    if e.denominator != 1:
        raise AssertionError(f"nonintegral eigenvalue exponent {e}")
    return params.q_power(int(e) % (2 * params.ell))


def vsq_summands(k: int) -> tuple[Weight, Weight, Weight]:
    """The three summands of V (x) V: unit, (2,0,...), (1,1,0,...)."""
    return (Weight.zero(k),
            Weight((4,) + (0,) * (k - 1)),
            Weight((2, 2) + (0,) * (k - 2)))


def eig_square_set_check(params: QuantumParams, table: FusionTable) -> dict:
    """Multiset check of the braiding eigenvalue squares on V (x) V.

    V (x) V is read from ``table``, the fusion table of ``params.alcove``.
    The target is {s q^{-8k}, s q^{4}, s q^{-4}} with s = -1 exactly when the
    rank is odd and q^ell = -1.  Values are compared (not exponents), since
    for q^ell = +1 exponents are only defined mod ell.
    """
    if table.params != params.alcove:
        raise DomainError(f"the table is for {table.params}, not {params.alcove}")
    k = params.datum.rank
    V = generator_weight(k, params.ell)
    got = {nu: _eig_sq(params, table.coefficient(V, V, nu), V, V, nu) for nu in vsq_summands(k)}
    s = -1 if (k % 2 == 1 and params.q_ell_sign == -1) else 1
    target = [s * params.q_power(e) for e in (-8 * k, 4, -4)]
    return {"squares": got, "match": _multiset_close(list(got.values()), target)}


def _multiset_close(xs: list[complex], ys: list[complex]) -> bool:
    if len(xs) != len(ys):
        return False
    remaining = list(ys)
    for x in xs:
        hit = next((i for i, y in enumerate(remaining) if abs(x - y) < 1e-9), None)
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def trace_match(params: QuantumParams) -> dict:
    """Compare the categorical weighted trace of the braiding with (T2).

    The braiding eigenvalue on each summand of V (x) V is a square root
    t_nu = s_nu q^{(c_nu - 2 c_V)/2}; the unit sign and the sign on the
    (2,0,...) summand are free (4 choices), the third is forced by the BMW
    pairing t_{(1,1)} = -1/t_{(2,0)}.  For odd rank with q^ell = -1 the
    braiding is of the +-i type and no (r, q) BMW presentation applies.
    """
    k, ell = params.datum.rank, params.ell
    applicable = (k % 2 == 0) or (params.q_ell_sign == 1)
    V = generator_weight(k, ell)
    summands = vsq_summands(k)
    cV = twist_exponent(params.datum, V)
    halves = [(twist_exponent(params.datum, nu) - 2 * cV) / 2 for nu in summands]
    roots = [params.q_power(h) for h in halves]
    dV, *dims = weyl_products(params.alcove, [V, *summands], [params.z])[:, 0].tolist()
    weights = [d / dV ** 2 for d in dims]
    qt = -params.q ** 2
    result = {"applicable": applicable, "matched": False, "choices": [], "tilde_matched": False}
    for s0 in (1, -1):
        for s1 in (1, -1):
            t0, t1 = s0 * roots[0], s1 * roots[1]
            forced = -1 / t1
            s2 = next((s for s in (1, -1) if abs(s * roots[2] - forced) < 1e-9), None)
            if s2 is None:
                continue
            total = weights[0] * t0 + weights[1] * t1 + weights[2] * s2 * roots[2]
            q_b, r_b = t1, 1 / t0
            try:
                expected = markov_trace_g(q_b, r_b)
            except SingularParameterError:
                continue
            err = abs(total - expected)
            choice = {
                "signs": (s0, s1, s2),
                "q_bmw": q_b,
                "r_bmw": r_b,
                "weighted_sum": total,
                "trace_value": expected,
                "error": err,
                "bc_parameter": abs(r_b + q_b ** (2 * k)) < 1e-9,
                "tilde": abs(q_b - qt) < 1e-9 and abs(r_b + qt ** (2 * k)) < 1e-9,
            }
            result["choices"].append(choice)
            if err < 1e-9:
                result["matched"] = True
                if choice["tilde"]:
                    result["tilde_matched"] = True
    return result


# -- rank-level duality ------------------------------------------------------

def type_c_alcove(k: int, ell: int) -> AlcoveParams:
    r = (ell - 2 * k - 1) // 2
    if (ell - 2 * k - 1) % 2:
        raise ConfigurationError("ell - 2k - 1 must be even")
    if r < 2:
        raise ConfigurationError(f"dual type C rank {r} < 2 at (k,ell)=({k},{ell})")
    return AlcoveParams(make_root_datum("C", r), ell)


def transpose_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """The transposes of the diagrams of ``rows``, an (m, 2k+1) array padded
    with zeros, each at most ``width`` wide: (m, width) int64 column heights,
    column j the number of rows longer than j."""
    return (rows[:, :, None] > np.arange(width)).sum(axis=1, dtype=np.int64)


def ranklevel_check(k: int, ell: int) -> dict:
    """Corollary-level check of B_k <-> C_{(ell-2k-1)/2} duality at level ell.

    Compares |Gamma(k, ell)| with the C alcove size, then checks the duality
    map itself: diagram transposition must send Gamma(k, ell) one-to-one onto
    the C alcove and carry the box graph onto the fusion graph of the vector
    representation; each diagram is at most r wide, so its transpose is a C_r
    weight.  No other isomorphism is searched for, so the check fails when
    transposition does; ``graph_isomorphic`` repeats that verdict.
    Needs ell > 2k+1 (Gamma defined) and dual rank (ell-2k-1)/2 >= 2.
    """
    if ell <= 2 * k + 1:
        raise ConfigurationError(f"need ell > 2k+1, got (k,ell)=({k},{ell})")
    paramsC = type_c_alcove(k, ell)
    r = paramsC.datum.rank
    diagrams, rows = _gamma(k, ell)
    labelsC = alcove_enumerate(paramsC)
    report = {
        "k": k, "ell": ell, "rank_c": r,
        "gamma_size": len(diagrams),
        "c_alcove_size": len(labelsC),
        "cardinalities_equal": len(diagrams) == len(labelsC),
        "transpose_is_graph_iso": False,
        "graph_isomorphic": False,
    }
    if not report["cardinalities_equal"]:
        return report
    P = label_positions(paramsC, 2 * transpose_rows(rows, r))
    if np.array_equal(np.sort(P), np.arange(len(labelsC))):
        A_vec = fuse_matrix(paramsC, paramsC.datum.fundamental_weight_1)
        iso = bool(np.array_equal(A_vec[np.ix_(P, P)], box_graph(k, ell)[1]))
        report["transpose_is_graph_iso"] = report["graph_isomorphic"] = iso
    return report


def duality_report(k: int, ell: int) -> dict:
    """JSON-able summary of the Gamma/Psi/rank-level checks at (k, ell).

    Psi is checked against V's fusion matrix alone, and no fusion table is
    built.  V = phi(Lambda_1) is a large weight, so its matrix is read off the
    small vector weight's instead: N_{V,mu}^nu = N_{Lambda_1,mu}^{phi(nu)},
    which is the vector matrix with its rows permuted by phi."""
    params = AlcoveParams(make_root_datum("B", k), ell)
    mapping = psi_table(k, ell)
    vector = fuse_matrix(params, params.datum.fundamental_weight_1)
    report = {
        "k": k,
        "ell": ell,
        "r": (ell - 2 * k - 1) // 2,
        "gamma_size": len(mapping),
        "alcove_size": len(alcove_enumerate(params)),
        "psi": [[list(d.rows), list(lab.doubled)] for d, lab in mapping.items()],
        "homeq_ok": verify_psi_fusion(k, ell, vector[list(InvolutionData.build(params).perm)]),
    }
    try:
        report["ranklevel"] = ranklevel_check(k, ell)
    except ConfigurationError as exc:
        report["ranklevel"] = {"skipped": str(exc)}
    return report


def duality_passed(report: dict) -> bool:
    """Verdict on a ``duality_report``: Psi respects fusion, and the rank-level
    check passed or was skipped because the cell has no dual."""
    ranklevel = report["ranklevel"]
    return report["homeq_ok"] and ("skipped" in ranklevel or (
        ranklevel["cardinalities_equal"] and ranklevel["graph_isomorphic"]))
