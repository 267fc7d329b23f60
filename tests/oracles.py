"""Independent oracles for the test suite.

Everything here recomputes quantities along a different route than the
package: weight multiplicities via the Kostant partition function instead of
Freudenthal, and Freudenthal's recursion itself as the scalar loop with one
sorted tuple and one dict lookup per (mu, root, j) (freudenthal_scalar),
tensor decompositions by multiplying formal characters and peeling highest
weights, the classical Racah-Speiser sum one Weyl image at a time, the
dominant weights below a highest weight by a box scan, the alcove by a plain
box scan, the affine reduction of a batch of rows by repeated finite sorts
and reflections in the highest root (reduce_rows_loop), associativity by
contracting every pair of fusion matrices and by the generator identity
(associativity_generator_identity),
Gamma(k, ell) by growing every diagram and sorting, its size counts by
column heights (gamma_counts), membership in it, the
bar map, phi, Psi and the transpose one diagram at a time (in_gamma,
bar_map, phi_weight, psi, transpose, diagram_as_c_weight), the one-box
neighbours of a diagram by adding and removing boxes (box_neighbors) and the
box graph from them, the Psi graph by walking every pair of diagrams, the
Perron-Frobenius vector by diagonalizing the matrix powers N^s + N^(s+1)
(pf_certify_powers), the q-Weyl product through exact Fraction pairings,
the q-Weyl product of one label at one z as a scalar loop over the roots
(weyl_product_scalar), the signed-permutation group (WeylElement,
weyl_elements) that the package never builds, and the Weyl alternating sum
over that whole group (alternating_sum_group) instead of a determinant.
Keep these slow and obvious.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from bcfusion.bmwdual import BOX, FerrersDiagram
from bcfusion.errors import (CertificationError, ConfigurationError, DimensionMismatchError,
                             DomainError)
from bcfusion.rootdata import RootDatum, Weight, _dominant_below, _positive_roots, make_root_datum


def _as_doubled(w):
    return w.doubled if isinstance(w, Weight) else tuple(w)


@dataclass(frozen=True)
class WeylElement:
    """Signed permutation w acting by (w v)[j] = signs[j] * v[perm[j]]."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.perm)

    @property
    def sign(self) -> int:
        """Signature: parity of the permutation times the product of sign flips."""
        perm = self.perm
        inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
        neg = sum(1 for s in self.signs if s < 0)
        return -1 if (inv + neg) % 2 else 1

    def apply(self, w: Weight) -> Weight:
        if w.rank != self.rank:
            raise DimensionMismatchError(f"rank mismatch: {w.rank} vs {self.rank}")
        return Weight(self.apply_doubled(w.doubled))

    def apply_doubled(self, v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(s * v[p] for p, s in zip(self.perm, self.signs))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """Composition self o other (apply ``other`` first)."""
        # (self*other)(v)[j] = s1[j] * (other v)[p1[j]] = s1[j]*s2[p1[j]] * v[p2[p1[j]]]
        perm = tuple(other.perm[p] for p in self.perm)
        signs = tuple(s * other.signs[p] for p, s in zip(self.perm, self.signs))
        return WeylElement(perm, signs)


@lru_cache(maxsize=None)
def weyl_elements(rank: int) -> tuple[WeylElement, ...]:
    """All 2^k k! signed permutations (the hyperoctahedral Weyl group of B_k and C_k)."""
    return tuple(WeylElement(perm, signs) for perm in itertools.permutations(range(rank))
                 for signs in itertools.product((1, -1), repeat=rank))


def alternating_sum_group(params, shifted, nu: Weight) -> np.ndarray:
    """sum_w eps(w) q^<w(v), nu> for each v in ``shifted``, one term per element
    of the whole Weyl group; params is a QuantumParams.

    With <a, b> = a.b / d in doubled coordinates (d = 2 on B, 4 on C), each
    term is exp(i pi t / (d ell)) for the integer t = z (w(v).nu) mod 2 d ell,
    so no exponent is rounded before it is reduced.
    """
    datum = params.datum
    elems = weyl_elements(datum.rank)
    perms = np.array([w.perm for w in elems], dtype=np.intp)
    signs = np.array([w.signs for w in elems], dtype=np.int64)
    eps = np.array([w.sign for w in elems], dtype=np.float64)
    imgs = signs * np.asarray(nu.doubled, dtype=np.int64)[perms]
    rows = np.asarray([v.doubled for v in shifted], dtype=np.int64)
    d = 2 if datum.family == "B" else 4
    turns = rows @ imgs.T * params.z % (2 * d * params.ell)
    return np.exp(1j * math.pi / (d * params.ell) * turns) @ eps


@lru_cache(maxsize=None)
def _kostant_partition(family: str, rank: int, beta: tuple[int, ...], start: int) -> int:
    """Number of ways to write beta as an N-combination of positive_roots[start:]."""
    datum = make_root_datum(family, rank)
    roots = datum.positive_roots
    if all(x == 0 for x in beta):
        return 1
    if start >= len(roots):
        return 0
    coords = datum.root_coordinates(Weight(beta))
    if coords is None or any(c < 0 for c in coords):
        return 0
    total = 0
    alpha = roots[start].doubled
    m = 0
    current = beta
    while True:
        total += _kostant_partition(family, rank, current, start + 1)
        current = tuple(a - b for a, b in zip(current, alpha))
        c = datum.root_coordinates(Weight(current))
        if c is None or any(x < 0 for x in c):
            break
        m += 1
    return total


def kostant_mult(datum: RootDatum, lam: Weight, mu: Weight) -> int:
    """Multiplicity of weight mu in V_lam: sum_w eps(w) K(w(lam+rho) - mu - rho)."""
    rho = datum.rho
    target = (mu + rho).doubled
    total = 0
    for w in weyl_elements(datum.rank):
        img = w.apply(lam + rho).doubled
        beta = tuple(a - b for a, b in zip(img, target))
        total += w.sign * _kostant_partition(datum.family, datum.rank, beta, 0)
    return total


def character_multiset(datum: RootDatum, lam: Weight) -> dict[tuple[int, ...], int]:
    """The full weight multiset of V_lam, every multiplicity from kostant_mult."""
    out: dict[tuple[int, ...], int] = {}
    cap = lam.doubled[0]
    par = cap % 2
    for tup in itertools.product(range(par, cap + 1, 2), repeat=datum.rank):
        if any(tup[i] < tup[i + 1] for i in range(datum.rank - 1)):
            continue
        m = kostant_mult(datum, lam, Weight(tup))
        if m:
            for img in orbit_brute(tup):
                out[img] = m
    return out


def orbit_brute(doubled: tuple[int, ...]) -> set[tuple[int, ...]]:
    out = set()
    for perm in itertools.permutations(doubled):
        for signs in itertools.product((1, -1), repeat=len(doubled)):
            out.add(tuple(s * x for s, x in zip(signs, perm)))
    return out


def char_product_decompose(datum: RootDatum, lam: Weight, mu: Weight) -> dict[Weight, int]:
    """Decompose V_lam (x) V_mu by multiplying characters and peeling maxima."""
    char_l = character_multiset(datum, lam)
    char_m = character_multiset(datum, mu)
    prod: dict[tuple[int, ...], int] = {}
    for a, ca in char_l.items():
        for b, cb in char_m.items():
            key = tuple(x + y for x, y in zip(a, b))
            prod[key] = prod.get(key, 0) + ca * cb
    result: dict[Weight, int] = {}
    while True:
        support = [w for w, c in prod.items() if c]
        if not support:
            break
        dominant = [w for w in support
                    if all(w[i] >= w[i + 1] for i in range(len(w) - 1)) and w[-1] >= 0]
        if not dominant:
            raise AssertionError("character product has no dominant support left")
        top = _root_order_max(datum, dominant)
        coeff = prod[top]
        if coeff < 0:
            raise AssertionError(f"negative coefficient at {top} while decomposing")
        result[Weight(top)] = coeff
        for w, c in character_multiset(datum, Weight(top)).items():
            prod[w] = prod.get(w, 0) - coeff * c
    return result


def _root_order_max(datum: RootDatum, candidates: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Some candidate that no other candidate strictly dominates in the root order."""
    def dominates(a, b) -> bool:
        coords = datum.root_coordinates(Weight(a) - Weight(b))
        return coords is not None and all(c >= 0 for c in coords) and any(c > 0 for c in coords)

    for a in candidates:
        if not any(dominates(b, a) for b in candidates if b != a):
            return a
    raise AssertionError("no maximal element found")


def alcove_box_scan(family: str, rank: int, ell: int) -> set[tuple[int, ...]]:
    """The alcove by scanning a crude box of dominant weights."""
    datum = make_root_datum(family, rank)
    rho = datum.rho
    out = set()
    parities = (0, 1) if family == "B" else (0,)
    for par in parities:
        for tup in itertools.product(range(par, 2 * ell, 2), repeat=rank):
            w = Weight(tup)
            if not w.is_dominant:
                continue
            if 2 * datum.form(w + rho, datum.theta) < 2 * ell:
                out.add(tup)
    return out


def dominant_weights_up_to(datum: RootDatum, total: int) -> list[Weight]:
    """All dominant lattice weights with coordinate sum <= total (both parities for B)."""
    out = []
    parities = (0, 1) if datum.family == "B" else (0,)
    for par in parities:
        for tup in itertools.product(range(par, 2 * total + 1, 2), repeat=datum.rank):
            w = Weight(tup)
            if w.is_dominant and sum(tup) <= 2 * total:
                out.append(w)
    return out


def affine_reduce_bfs(family: str, rank: int, ell: int, xi_doubled: tuple[int, ...]):
    """Brute-force dot-action reduction by BFS over signed orbit states.

    Explores the orbit of xi + rho under adjacent swaps, a last-coordinate
    sign flip, and the ell-reflection, tracking signatures.  Returns
    (label_doubled, sign) or (None, 0) when two routes reach the same vector
    with opposite signs (a stabilizing reflection) or a degenerate vector
    appears.  Exponential; use at rank 2 or 3 only.
    """
    datum = make_root_datum(family, rank)
    rho = datum.rho.doubled
    start = tuple(a + b for a, b in zip(xi_doubled, rho))

    def pairing(v):
        return v[0] if family == "B" else (v[0] + v[1]) // 2

    def neighbors(v):
        for i in range(rank - 1):
            yield (-1, v[:i] + (v[i + 1], v[i]) + v[i + 2:])
        yield (-1, v[:-1] + (-v[-1],))
        shift = 2 * (ell - pairing(v))
        if family == "B":
            yield (-1, (v[0] + shift,) + v[1:])
        else:
            yield (-1, (v[0] + shift, v[1] + shift) + v[2:])

    cap = max(max(abs(x) for x in start), 2 * ell) + 2 * ell
    seen = {start: 1}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for ds, u in neighbors(v):
                if max(abs(x) for x in u) > cap:
                    continue
                s = seen[v] * ds
                if u in seen:
                    if seen[u] != s:
                        return None, 0
                    continue
                seen[u] = s
                nxt.append(u)
        frontier = nxt
    candidates = []
    for v, s in seen.items():
        if any(x <= 0 for x in v):
            continue
        if any(v[i] <= v[i + 1] for i in range(rank - 1)):
            continue
        if pairing(v) >= ell:
            continue
        candidates.append((v, s))
    if not candidates:
        return None, 0
    assert len(candidates) == 1, candidates
    v, s = candidates[0]
    return tuple(a - b for a, b in zip(v, rho)), s


def reduce_rows_loop(params, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce each row of V, a rho-shifted vector in doubled coordinates, into C_ell.

    Returns (signs, labels): signs[i] is the signature of the affine Weyl
    element taking row i into the rho-shifted alcove, 0 when the row lies on a
    reflection hyperplane, and labels[i] the label it reaches (meaningless
    where signs[i] is 0).  Rows not yet in the alcove are sorted and reflected
    in the affine wall of the highest root until every row lands.
    """
    ell, family = params.ell, params.datum.family
    rho = np.array(params.datum.rho.doubled, dtype=np.int64)
    i, j = np.triu_indices(V.shape[1], 1)
    signs = np.ones(len(V), dtype=np.int64)
    labels = np.zeros_like(V)
    rows = np.arange(len(V))
    while rows.size:
        # finite Weyl reduction: sort absolute values, descending
        a = np.abs(V)
        w = -np.sort(-a, axis=1)
        odd = ((V < 0).sum(axis=1) + (a[:, i] < a[:, j]).sum(axis=1)) % 2
        s = np.where(odd, -signs[rows], signs[rows])
        wall = (w[:, -1] == 0) | (w[:, :-1] == w[:, 1:]).any(axis=1)
        pairing = w[:, 0] if family == "B" else (w[:, 0] + w[:, 1]) // 2
        s[wall | (pairing == ell)] = 0
        done = wall | (pairing <= ell)
        # affine reflection t_ell of the rest: v += (ell - <v,theta_check>) * theta, doubled
        signs[rows] = np.where(done, s, -s)
        labels[rows[done]] = w[done] - rho
        V = w[~done]
        shift = 2 * (ell - pairing[~done])
        V[:, 0] += shift
        if family == "C":
            V[:, 1] += shift
        rows = rows[~done]
    return signs, labels


def col2(lam: FerrersDiagram) -> int:
    """Height of the second column."""
    return sum(1 for r in lam.rows if r >= 2)


def width(lam: FerrersDiagram) -> int:
    return lam.rows[0] if lam.rows else 0


def transpose(lam: FerrersDiagram) -> FerrersDiagram:
    return FerrersDiagram(tuple(sum(1 for r in lam.rows if r > i) for i in range(width(lam))))


def in_gamma(k: int, ell: int, lam: FerrersDiagram) -> bool:
    """Membership in Gamma(k, ell): col1 + col2 <= 2k+1 and width <= (ell-2k-1)/2."""
    return lam.col1 + col2(lam) <= 2 * k + 1 and 2 * width(lam) <= ell - 2 * k - 1


def bar_map(k: int, lam: FerrersDiagram) -> Weight:
    """Restrict an O(2k+1) diagram to so(2k+1): replace the first-column height
    by min(2k+1 - col1, col1) and read the rows as a dominant integer weight."""
    if lam.col1 + col2(lam) > 2 * k + 1:
        raise DomainError(f"{lam} violates col1 + col2 <= 2k+1 for k={k}")
    m = min(2 * k + 1 - lam.col1, lam.col1)
    rows = lam.rows[:m]
    return Weight(tuple(2 * r for r in rows) + (0,) * (k - len(rows)))


def phi_weight(k: int, ell: int, lam: Weight) -> Weight:
    """phi(lam) = gamma - w1(lam) at rank k and level ell, for any weight lam;
    gamma = ((ell-2k)/2, ..., (ell-2k)/2) is phi of the zero weight."""
    return Weight(tuple(ell - 2 * k - x for x in reversed(lam.doubled)))


def psi(k: int, ell: int, lam: FerrersDiagram) -> Weight:
    """Psi: Gamma(k, ell) -> C_ell; bar for even diagrams, phi(bar) for odd ones."""
    if not in_gamma(k, ell, lam):
        raise DomainError(f"{lam} is not in Gamma({k},{ell})")
    bw = bar_map(k, lam)
    return bw if lam.size % 2 == 0 else phi_weight(k, ell, bw)


def diagram_as_c_weight(lam: FerrersDiagram, r: int) -> Weight | None:
    """Read a diagram with at most r rows as a dominant C_r weight."""
    if lam.col1 > r:
        return None
    return Weight(tuple(2 * x for x in lam.rows) + (0,) * (r - lam.col1))


def gamma_set_brute(k: int, ell: int) -> tuple[FerrersDiagram, ...]:
    """All of Gamma(k, ell), ordered by (size, rows): every diagram grown one
    row at a time until it leaves Gamma, then sorted."""
    if ell <= 2 * k + 1:
        raise ConfigurationError(f"need ell > 2k+1, got k={k}, ell={ell}")
    width_cap = (ell - 2 * k - 1) // 2
    out: list[FerrersDiagram] = []

    def rec(rows: tuple[int, ...], top: int):
        d = FerrersDiagram(rows)
        if in_gamma(k, ell, d):
            out.append(d)
        else:
            return
        if len(rows) >= 2 * k + 1:
            return
        for part in range(1, top + 1):
            rec(rows + (part,), part)

    rec((), width_cap)
    return tuple(sorted(out, key=lambda d: (d.size, d.rows)))


def gamma_counts(k: int, ell: int, sizes) -> list[int]:
    """The number of diagrams of Gamma(k, ell) of each size in ``sizes``,
    counted by column heights c1 >= c2 >= ... >= c_w, w = (ell-2k-1)/2: every
    c1 >= c2 with c1 + c2 <= 2k+1, and the rest a partition into at most
    w - 2 parts, each at most c2.  No diagram is built."""
    budget, w = 2 * k + 1, (ell - 2 * k - 1) // 2

    @lru_cache(maxsize=None)
    def bounded(n: int, parts: int, top: int) -> int:
        """Partitions of n into at most ``parts`` parts, each at most ``top``."""
        if n < 0:
            return 0
        if n == 0:
            return 1
        if parts <= 0 or top <= 0:
            return 0
        return bounded(n, parts, top - 1) + bounded(n - top, parts - 1, top)

    def count(size: int) -> int:
        if w < 2:
            return int(size <= budget * w)
        return sum(bounded(size - c1 - c2, w - 2, c2)
                   for c1 in range(budget + 1) for c2 in range(min(c1, budget - c1) + 1))

    return [count(size) for size in sizes]


def weyl_product_fraction(params, lam: Weight, coroot: bool) -> float:
    """prod_{alpha > 0} [<lam+rho, alpha>] / [<rho, alpha>] (alpha_check with
    ``coroot``), each pairing an exact Fraction from the datum's bilinear form
    and [n] = sin(n x)/sin(x) at x = z pi/ell."""
    datum = params.datum
    pairing = datum.form_coroot if coroot else datum.form
    x = math.pi * params.z / params.ell

    def quantum_integer(n) -> float:
        return math.sin(float(n) * x) / math.sin(x)

    shifted = lam + datum.rho
    val = 1.0
    for a in datum.positive_roots:
        val *= quantum_integer(pairing(shifted, a)) / quantum_integer(pairing(datum.rho, a))
    return val


def weyl_product_scalar(params, pairings: np.ndarray) -> float:
    """prod_{alpha > 0} [n_alpha] / [m_alpha] over the pairing rows [m; n] of
    one label, with [n] = sin(n z pi/ell) / sin(z pi/ell)."""
    x = math.pi * params.z / params.ell
    sin_x = math.sin(x)
    val = 1.0
    for at_rho, at_shifted in zip(*pairings.tolist()):
        val *= (math.sin(at_shifted * x) / sin_x) / (math.sin(at_rho * x) / sin_x)
    return val


def _inversions(v: tuple[int, ...]) -> int:
    """Inversion count of the permutation sorting |v| in descending order."""
    a = [abs(x) for x in v]
    return sum(1 for i in range(len(a)) for j in range(i + 1, len(a)) if a[i] < a[j])


def classical_tensor_scalar(datum: RootDatum, lam: Weight, mu: Weight) -> dict[Weight, int]:
    """Decompose V_lam (x) V_mu classically, one Weyl image of P(lam) at a time."""
    for w in (lam, mu):
        if not w.is_dominant:
            raise DomainError(f"{w} is not dominant")
    if datum.weyl_dim(lam) > datum.weyl_dim(mu):
        lam, mu = mu, lam
    rho = datum.rho.doubled
    out: dict[tuple[int, ...], int] = {}
    for dom, m in datum.dominant_weight_multiplicities(lam).items():
        for kap in datum.weyl_orbit(dom).tolist():
            v = tuple(a + b + c for a, b, c in zip(mu.doubled, kap, rho))
            w = sorted((abs(x) for x in v), reverse=True)
            if w[-1] == 0 or any(w[i] == w[i + 1] for i in range(len(w) - 1)):
                continue
            s = -1 if (sum(1 for x in v if x < 0) + _inversions(v)) % 2 else 1
            lab = tuple(a - b for a, b in zip(w, rho))
            out[lab] = out.get(lab, 0) + s * m
    res = {Weight(lab): c for lab, c in out.items() if c}
    if any(c < 0 for c in res.values()):
        raise AssertionError(f"negative classical multiplicity in {lam} (x) {mu}")
    return res


def freudenthal_scalar(family: str, rank: int, lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Freudenthal multiplicities of the dominant weights of V_lam, one (mu, root, j)
    term at a time, in the same (height, then lexicographic) key order as the package."""
    datum = make_root_datum(family, rank)

    def form2(a, b):  # 2<a, b> from doubled a and b, as RootDatum.form_doubled
        s = sum(x * y for x, y in zip(a, b))
        return s if family == "B" else s // 2

    roots = [(r.doubled, form2(r.doubled, r.doubled)) for r in _positive_roots(family, rank)]
    rho = datum.rho.doubled
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    top_norm = form2(lam, lam)
    top_casimir = form2(lam_rho, lam_rho)

    doms = _dominant_below(datum, lam)
    # process by increasing height of lam - mu so higher multiplicities exist first
    doms.sort(key=lambda m: sum(datum.root_coordinates(Weight(lam) - Weight(m))))
    mult: dict[tuple[int, ...], int] = {lam: 1}
    for mu in doms:
        if mu == lam:
            continue
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        denom = top_casimir - form2(mu_rho, mu_rho)
        num = 0
        mu_norm = form2(mu, mu)
        for a, a_norm in roots:
            # <mu, a> >= 0 for dominant mu, so |mu + j a|^2 grows with j
            pair = form2(mu, a)
            j = 1
            while mu_norm + j * (2 * pair + j * a_norm) <= top_norm:
                w = tuple(x + j * y for x, y in zip(mu, a))
                m = mult.get(tuple(sorted((abs(x) for x in w), reverse=True)), 0)
                if m:
                    num += 2 * m * (pair + j * a_norm)
                j += 1
        if num % denom:
            raise AssertionError(f"Freudenthal recursion not integral at {mu} below {lam}")
        mult[mu] = num // denom
    return mult


def dominant_below_scan(datum: RootDatum, lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Dominant weights mu <= lam in the root order, by scanning every tuple of
    range(par, lam_1 + 1, 2)^k in lexicographic order."""
    par = lam[0] % 2
    rng = range(par, lam[0] + 1, 2)
    out = []
    for tup in itertools.product(rng, repeat=datum.rank):
        if any(tup[i] < tup[i + 1] for i in range(datum.rank - 1)):
            continue
        coords = datum.root_coordinates(Weight(lam) - Weight(tup))
        if coords is not None and all(c >= 0 for c in coords):
            out.append(tup)
    return out


def associativity_full(table) -> bool:
    """N_lam N_mu = sum_sigma N_{lam,mu}^{sigma} N_sigma for all lam, mu.

    Matrix entries stay far below 2**53, so float64 contractions are exact.
    """
    N = table.coeffs.astype(np.float64)
    T = N.transpose(0, 2, 1)  # T[m] = fusion matrix of label m
    for i in range(table.size):
        # lhs[a, m, c] = (T_i T_m)[a, c];  rhs[m, a, c] = sum_s N_{i,m}^s T_s[a, c]
        lhs = np.tensordot(T[i], T, axes=([1], [1]))
        rhs = np.tensordot(N[i], T, axes=([1], [0]))
        if not np.array_equal(lhs.transpose(1, 0, 2), rhs):
            return False
    return True


def associativity_generator_identity(table) -> bool:
    """Associativity from the generator rows by the generator identity, at
    |G| n^4 flops: L_0 = I, every label nu other than 0 and the generators is
    reached (some generator g with nu - g a label before nu,
    N_{g,nu-g}^nu = 1 and every other term before nu), and
    L_g L_b = sum_sigma N_{g,b}^sigma L_sigma for every generator g and label b.

    With L_nu = L_g L_{nu-g} - sum_{sigma != nu} N_{g,nu-g}^sigma L_sigma, the
    matrices M with L_{M y} = M L_y for every vector y form an algebra that
    holds I and every L_g, hence every L_nu by induction in label order.  The
    identity is checked for all b at once on the float64 table, whose entries
    stay far below 2**53.
    """
    N = table.coeffs.astype(np.float64)
    n, labels = table.size, table.labels
    k, family = table.params.datum.rank, table.params.datum.family
    index = {lab: i for i, lab in enumerate(labels)}
    unit = index[Weight.zero(k)]
    if not np.array_equal(N[unit], np.eye(n)):
        return False
    top = k - 1 if family == "B" else k
    weights = [(2,) * i + (0,) * (k - i) for i in range(1, top + 1)]
    weights += [(1,) * k] if family == "B" else []
    gens = [index[Weight(g)] for g in weights if Weight(g) in index]
    for v, nu in enumerate(labels):
        if v == unit or v in gens:
            continue
        reached = False
        for g in gens:
            rest = index.get(nu - labels[g])
            if rest is not None and rest < v and N[g, rest, v] == 1:
                reached = reached or all(s <= v for s in np.flatnonzero(N[g, rest]))
        if not reached:
            return False
    # entry [b, x, c]: sum_y N_{b,x}^y N_{g,y}^c against sum_sigma N_{g,b}^sigma N_{sigma,x}^c
    return all(np.array_equal((N.reshape(-1, n) @ N[g]).ravel(), (N[g] @ N.reshape(n, -1)).ravel())
               for g in gens)


def box_neighbors(k: int, ell: int, lam: FerrersDiagram) -> tuple[FerrersDiagram, ...]:
    """All diagrams of Gamma(k, ell) differing from lam by exactly one box."""
    if not in_gamma(k, ell, lam):
        raise DomainError(f"{lam} is not in Gamma({k},{ell})")
    rows = lam.rows
    out = []
    for i in range(len(rows)):
        if i == 0 or rows[i] < rows[i - 1]:
            out.append(rows[:i] + (rows[i] + 1,) + rows[i + 1:])
        if rows[i] > (rows[i + 1] if i + 1 < len(rows) else 0):
            cand = rows[:i] + (rows[i] - 1,) + rows[i + 1:]
            out.append(tuple(r for r in cand if r))
    out.append(rows + (1,))
    seen = []
    for cand in out:
        d = FerrersDiagram(cand)
        if in_gamma(k, ell, d) and d not in seen:
            seen.append(d)
    return tuple(sorted(seen, key=lambda d: (d.size, d.rows)))


def box_graph_neighbors(k: int, ell: int) -> tuple[tuple[FerrersDiagram, ...], np.ndarray]:
    """Gamma(k, ell) with its one-box adjacency matrix, one ``box_neighbors``
    call per diagram."""
    diagrams = gamma_set_brute(k, ell)
    index = {d: i for i, d in enumerate(diagrams)}
    A = np.zeros((len(diagrams), len(diagrams)), dtype=np.int64)
    for d in diagrams:
        for nb in box_neighbors(k, ell, d):
            A[index[nb], index[d]] = 1
    if not np.array_equal(A, A.T):
        raise AssertionError("box adjacency is not symmetric")
    return diagrams, A


def pf_certify_powers(table) -> tuple[int, np.ndarray]:
    """(s, eigenvector) of the Perron-Frobenius certificate from
    ``eigh`` of M = A^s + A^(s+1) itself, A = N_spin (type B) or N_vector
    (type C), with the float positivity of M checked against the 0/1 pattern."""
    datum = table.params.datum
    A = table.fusion_matrix(datum.spin_weight if datum.family == "B" else datum.fundamental_weight_1)
    n = table.size
    adj = (A > 0).astype(np.float64)

    def step(pattern: np.ndarray) -> np.ndarray:
        return ((pattern @ adj) > 0).astype(np.float64)

    s, cur = 1, adj
    nxt = step(cur)
    found = None
    while s <= 2 * n:
        if ((cur + nxt) > 0).all():
            found = s
            break
        cur = step(nxt)
        nxt = step(cur)
        s += 2
    if found is None:
        raise CertificationError(f"no odd s <= {2 * n} with N^s + N^(s+1) positive")
    Af = A.astype(np.float64)
    M = np.linalg.matrix_power(Af, found) + np.linalg.matrix_power(Af, found + 1)
    if not (M > 0).all():
        raise AssertionError("positivity pattern disagreed with boolean reachability")
    evecs = np.linalg.eigh(M)[1]
    scaled = evecs / evecs[np.abs(evecs).argmax(axis=0), np.arange(n)]
    positive = (scaled > 1e-9).all(axis=0)
    if positive.sum() != 1:
        raise CertificationError(
            f"expected exactly one positive eigenvector, found {positive.sum()}")
    pf_vec = scaled[:, int(positive.argmax())]
    unit = table.index(Weight.zero(table.params.rank))
    return found, pf_vec / pf_vec[unit]


def psi_fusion_pairs(table) -> bool:
    """mu ~ lam in the box rule iff N_{V,Psi(lam)}^{Psi(mu)} = 1, with every
    entry of N_V in {0, 1}, one pair of diagrams at a time."""
    k, ell = table.params.datum.rank, table.params.ell
    diagrams = gamma_set_brute(k, ell)
    mapping = {d: psi(k, ell, d) for d in diagrams}
    M = table.fusion_matrix(psi(k, ell, BOX))
    if not set(np.unique(M)) <= {0, 1}:
        return False
    for lam in diagrams:
        nbrs = set(box_neighbors(k, ell, lam))
        j = table.index(mapping[lam])
        for mu in diagrams:
            if int(M[table.index(mapping[mu]), j]) != (1 if mu in nbrs else 0):
                return False
    return True
