"""Diagram labels, the bar/Psi correspondence, BMW scalar identities, and
the type C rank-level duality check.

The diagram side is built purely combinatorially.  Gamma(k, ell) comes from
its row bounds: ``gamma_rows`` walks it as row tuples, one size at a time,
with no object per diagram.  ``iter_gamma`` wraps each tuple in a
``FerrersDiagram``, and the unitarity audit reads blocks of them as padded
int64 arrays (``row_array``) whose bar map ``bar_rows`` takes in one array
operation.  The box graph is a containment test on Ferrers diagrams (one
diagram holds the other row by row and has one more box), so comparing its
fusion graph with the quantum-group side under Psi is a genuine two-sided
test rather than a tautology.  Every graph claim reads one ``box_graph`` per
(k, ell): the Psi graph and rank-level duality are each a fusion matrix
permuted into diagram order (by Psi, resp. by transposition) and compared
with it, and the Bratteli counts walk it.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ConfigurationError, DomainError, SingularParameterError
from .fusion import AlcoveParams, FusionTable, _path_counts, alcove_enumerate, fuse, fuse_matrix
from .qchar import QuantumParams, twist_exponent, weyl_products
from .rootdata import Weight, make_root_datum
from .symmetry import InvolutionData, phi_weight


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

    @property
    def col2(self) -> int:
        """Height of the second column."""
        return sum(1 for r in self.rows if r >= 2)

    @property
    def width(self) -> int:
        return self.rows[0] if self.rows else 0

    def transpose(self) -> "FerrersDiagram":
        return FerrersDiagram(tuple(sum(1 for r in self.rows if r > i) for i in range(self.width)))

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.rows)) + "]" if self.rows else "[]"


BOX = FerrersDiagram((1,))
EMPTY = FerrersDiagram(())


def in_gamma(k: int, ell: int, lam: FerrersDiagram) -> bool:
    """Membership in Gamma(k, ell): col1 + col2 <= 2k+1 and width <= (ell-2k-1)/2."""
    return lam.col1 + lam.col2 <= 2 * k + 1 and 2 * lam.width <= ell - 2 * k - 1


def gamma_set(k: int, ell: int) -> tuple[FerrersDiagram, ...]:
    """All of Gamma(k, ell), ordered by (size, rows): the whole of ``iter_gamma``."""
    return tuple(iter_gamma(k, ell))


def iter_gamma(k: int, ell: int) -> Iterator[FerrersDiagram]:
    """Gamma(k, ell) in (size, rows) order, walked lazily one size at a time:
    each row tuple of ``gamma_rows`` as a ``FerrersDiagram``.  Raises
    ``ConfigurationError`` when called, not on first iteration."""
    return (FerrersDiagram(rows) for same_size in gamma_rows(k, ell) for rows in same_size)


def gamma_rows(k: int, ell: int, step: int = 1) -> Iterator[list[tuple[int, ...]]]:
    """The row tuples of Gamma(k, ell), one list per size, of sizes 0, step,
    2 step, ... in turn; each list is in lex-ascending order, so their
    concatenation with step 1 is Gamma in (size, rows) order.

    A row of length 1 costs one unit of the col1 + col2 <= 2k+1 budget and a
    longer row two, and the walk only enters a branch whose remaining size
    still fits the budget left, so every branch it enters ends in a diagram.
    Gamma is an order ideal of Young's lattice, so its sizes run without a gap
    from 0 to the largest that fits the whole budget, where the walk stops.
    A size the step skips is walked only as far as the sizes it takes need
    its tails.  No object is built per diagram.  Raises
    ``ConfigurationError`` when called, not on first iteration.
    """
    if ell <= 2 * k + 1:
        raise ConfigurationError(f"need ell > 2k+1, got k={k}, ell={ell}")
    return _size_ordered_walk(2 * k + 1, (ell - 2 * k - 1) // 2, step)


def _largest_fill(top: int, budget: int) -> int:
    """The largest size that rows of length <= top fit in ``budget``: pairs of
    units go to rows of length top, an odd unit left over to a row of 1."""
    if top < 2:
        return top * budget
    return (budget // 2) * top + budget % 2


def _size_ordered_walk(budget: int, width: int, step: int) -> Iterator[list[tuple[int, ...]]]:
    tails: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}

    def rows_of(size: int, top: int, budget: int) -> list[tuple[int, ...]]:
        """The lex-ascending row tuples of ``size`` with rows <= top within
        ``budget``; shared between every prefix that leaves the same three."""
        key = (size, top, budget)
        if key not in tails:
            out = [()] if not size else []
            for part in range(1, min(top, size) + 1):
                left = budget - (1 if part == 1 else 2)
                if left >= 0 and size - part <= _largest_fill(part, left):
                    out.extend([(part,) + tail for tail in rows_of(size - part, part, left)])
            tails[key] = out
        return tails[key]

    for size in range(0, _largest_fill(width, budget) + 1, step):
        yield rows_of(size, width, budget)


def row_array(rows: list[tuple[int, ...]], width: int) -> np.ndarray:
    """Row tuples as an (m, width) int64 array, each padded with zeros."""
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    out = np.zeros((len(rows), width), dtype=np.int64)
    out[np.arange(width) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    return out


def bar_map(k: int, lam: FerrersDiagram) -> Weight:
    """Restrict an O(2k+1) diagram to so(2k+1): replace the first-column height
    by min(2k+1 - col1, col1) and read the rows as a dominant integer weight."""
    if lam.col1 + lam.col2 > 2 * k + 1:
        raise DomainError(f"{lam} violates col1 + col2 <= 2k+1 for k={k}")
    m = min(2 * k + 1 - lam.col1, lam.col1)
    rows = lam.rows[:m]
    return Weight(tuple(2 * r for r in rows) + (0,) * (k - len(rows)))


def bar_rows(k: int, rows: np.ndarray) -> np.ndarray:
    """``bar_map`` on many diagrams at once: ``rows`` is an (m, 2k+1) int64
    array of rows padded with zeros, each within col1 + col2 <= 2k+1 (every
    diagram of Gamma is), and the result the (m, k) int64 doubled weights."""
    col1 = (rows > 0).sum(axis=1)
    m = np.minimum(2 * k + 1 - col1, col1)
    return np.where(np.arange(k) < m[:, None], 2 * rows[:, :k], 0)


def generator_weight(k: int, ell: int) -> Weight:
    """phi(Lambda_1), the BMW-side generator's image."""
    return phi_weight(k, ell, Weight((2,) + (0,) * (k - 1)))


def psi(k: int, ell: int, lam: FerrersDiagram) -> Weight:
    """Psi: Gamma(k, ell) -> C_ell; bar for even diagrams, phi(bar) for odd ones."""
    if not in_gamma(k, ell, lam):
        raise DomainError(f"{lam} is not in Gamma({k},{ell})")
    bw = bar_map(k, lam)
    return bw if lam.size % 2 == 0 else phi_weight(k, ell, bw)


def psi_table(k: int, ell: int) -> dict[FerrersDiagram, Weight]:
    """Psi on all of Gamma(k, ell), with bijectivity onto C_ell enforced."""
    params = AlcoveParams(make_root_datum("B", k), ell)
    labels = set(alcove_enumerate(params))
    mapping = {d: psi(k, ell, d) for d in gamma_set(k, ell)}
    images = set(mapping.values())
    if len(images) != len(mapping) or images != labels:
        raise AssertionError(f"Psi is not a bijection onto C_ell at (k,ell)=({k},{ell})")
    return mapping


@lru_cache(maxsize=None)
def box_graph(k: int, ell: int) -> tuple[tuple[FerrersDiagram, ...], np.ndarray]:
    """Gamma(k, ell) with its one-box adjacency matrix, built once per (k, ell)
    and returned read-only.

    mu is lam plus one box exactly when |mu| = |lam| + 1 and mu contains lam,
    row by row; the rows are padded with zeros to the 2k+1 that col1 allows.
    """
    diagrams = gamma_set(k, ell)
    rows = row_array([d.rows for d in diagrams], 2 * k + 1)
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
    the box adjacency.  ``psi_table`` makes that permutation a bijection onto
    every label, so a match also forces every entry of M to be 0 or 1.
    """
    mapping = psi_table(k, ell)
    diagrams, A_box = box_graph(k, ell)
    index = {w: i for i, w in enumerate(alcove_enumerate(AlcoveParams(make_root_datum("B", k), ell)))}
    P = np.array([index[mapping[d]] for d in diagrams])
    return bool(np.array_equal(M[np.ix_(P, P)], A_box))


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


def diagram_as_c_weight(lam: FerrersDiagram, r: int) -> Weight | None:
    """Read a diagram with at most r rows as a dominant C_r weight."""
    if lam.col1 > r:
        return None
    return Weight(tuple(2 * x for x in lam.rows) + (0,) * (r - lam.col1))


def ranklevel_check(k: int, ell: int) -> dict:
    """Corollary-level check of B_k <-> C_{(ell-2k-1)/2} duality at level ell.

    Compares |Gamma(k, ell)| with the C alcove size, then checks the duality
    map itself: diagram transposition must send Gamma(k, ell) one-to-one onto
    the C alcove and carry the box graph onto the fusion graph of the vector
    representation.  No other isomorphism is searched for, so the check fails
    when transposition does; ``graph_isomorphic`` repeats that verdict.
    Needs ell > 2k+1 (Gamma defined) and dual rank (ell-2k-1)/2 >= 2.
    """
    if ell <= 2 * k + 1:
        raise ConfigurationError(f"need ell > 2k+1, got (k,ell)=({k},{ell})")
    paramsC = type_c_alcove(k, ell)
    r = paramsC.datum.rank
    diagrams, A_box = box_graph(k, ell)
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
    indexC = {w: i for i, w in enumerate(labelsC)}
    perm = [indexC.get(diagram_as_c_weight(d.transpose(), r)) for d in diagrams]
    if None not in perm and len(set(perm)) == len(perm):
        P = np.array(perm)
        A_vec = fuse_matrix(paramsC, paramsC.datum.fundamental_weight_1)
        iso = bool(np.array_equal(A_vec[np.ix_(P, P)], A_box))
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
        "psi": [[list(d.rows), list(w.doubled)] for d, w in sorted(
            mapping.items(), key=lambda p: (p[0].size, p[0].rows))],
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
