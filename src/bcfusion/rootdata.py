"""Exact root-system data, Weyl orbits and Freudenthal multiplicities for types B and C.

Weights are stored through their *doubled* coordinates (every entry is
2*lambda_i), so the half-integral spin weights of type B are exact integers
and all dominance / wall tests are integer comparisons.  The bilinear form
is normalized so that short roots have squared length 2: for B_k this is
twice the Euclidean dot product, for C_r it is the dot product itself.

Freudenthal multiplicities are found in two parts, for many highest weights
lam at once (``_freudenthal_pass``; ``_freudenthal_passes`` packs them into
passes of bounded size, and ``_freudenthal`` is a pass of one).  numpy does
every lookup in one int64 pass over all dominant mu <= lam of every lam and
all positive roots a at once: the last step j with |mu + j a|^2 <= |lam|^2
comes from the root of a quadratic, checked exactly in integers, every
(mu, a, j) term is laid out by ``np.repeat``, ``sort_network`` makes each
mu + j a dominant and one table lookup on ``decreasing_rank`` of its halved
entries, offset by its lam's own slots, finds it among lam's dominant
weights.  Python then runs the recursion over those (target,
2(<mu, a> + j|a|^2)) lists in height order, lam by lam, in exact ints, so
an inexact division still raises.

``sort_network`` is the odd-even transposition network that sorts the k
coordinate columns of many weights at once; the affine reduction in
``fusion`` runs on it too.  ``decreasing_rank`` is the exact place of a
weakly decreasing tuple among all of them, the combinatorial number system;
``fusion.label_positions`` finds alcove labels by it too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import DimensionMismatchError, DomainError, InvalidRankError

FAMILIES = ("B", "C")


@dataclass(frozen=True)
class Weight:
    """A rank-k vector in doubled coordinates (entry i is 2*lambda_i).

    Lattice weights of type B have uniformly integral or uniformly
    half-integral entries; type C weights are integral.  Vectors that mix
    the two (dual vectors such as the short coroots of B in rank >= 3) are
    representable, but ``parity`` raises for them and lattice-facing
    operations reject them.
    """

    doubled: tuple[int, ...]

    def __post_init__(self):
        if not self.doubled or any(not isinstance(x, int) for x in self.doubled):
            raise DomainError(f"doubled coordinates must be a nonempty tuple of ints, got {self.doubled!r}")

    @classmethod
    def from_entries(cls, entries) -> "Weight":
        """Build from true coordinates (ints, Fractions, or floats equal to n/2)."""
        doubled = []
        for x in entries:
            d = Fraction(x) * 2
            if d.denominator != 1:
                raise DomainError(f"entry {x} is not an integer or half-integer")
            doubled.append(int(d))
        return cls(tuple(doubled))

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls((0,) * rank)

    @property
    def rank(self) -> int:
        return len(self.doubled)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(d, 2) for d in self.doubled)

    @property
    def has_uniform_parity(self) -> bool:
        return len({d % 2 for d in self.doubled}) == 1

    @property
    def parity(self) -> int:
        """p(lambda): +1 for integral weights, -1 for half-integral ones."""
        pars = {d % 2 for d in self.doubled}
        if len(pars) != 1:
            raise DomainError(f"{self} mixes integral and half-integral entries")
        return 1 if pars == {0} else -1

    @property
    def is_dominant(self) -> bool:
        d = self.doubled
        return all(d[i] >= d[i + 1] for i in range(len(d) - 1)) and d[-1] >= 0

    def __add__(self, other: "Weight") -> "Weight":
        _check_rank(self, other)
        return Weight(tuple(a + b for a, b in zip(self.doubled, other.doubled)))

    def __sub__(self, other: "Weight") -> "Weight":
        _check_rank(self, other)
        return Weight(tuple(a - b for a, b in zip(self.doubled, other.doubled)))

    def __str__(self) -> str:
        return ",".join(str(d // 2) if d % 2 == 0 else f"{d}/2" for d in self.doubled)


def _check_rank(a: Weight, b: Weight) -> None:
    if a.rank != b.rank:
        raise DimensionMismatchError(f"rank mismatch: {a.rank} vs {b.rank}")


@dataclass(frozen=True)
class RootDatum:
    """Root data for B_k or C_r with the short-root-normalized form."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.rank < 2:
            raise InvalidRankError(f"rank must be >= 2, got {self.rank}")

    # -- structural data ----------------------------------------------------

    @property
    def positive_roots(self) -> tuple[Weight, ...]:
        return _positive_roots(self.family, self.rank)

    @property
    def rho(self) -> Weight:
        """Half the sum of the positive roots."""
        return _rho(self.family, self.rank)

    @property
    def theta(self) -> Weight:
        """Highest short root (the odd-ell convention); <theta, theta> = 2, so
        theta is also its own coroot theta_check."""
        k = self.rank
        if self.family == "B":
            return Weight((2,) + (0,) * (k - 1))
        return Weight((2, 2) + (0,) * (k - 2))

    @property
    def fundamental_weight_1(self) -> Weight:
        """Highest weight of the defining (vector) representation."""
        return Weight((2,) + (0,) * (self.rank - 1))

    @property
    def spin_weight(self) -> Weight:
        """Lambda_k = (1/2, ..., 1/2); only meaningful for family B."""
        return Weight((1,) * self.rank)

    # -- bilinear form ------------------------------------------------------

    def form_doubled(self, a: Weight, b: Weight) -> int:
        """2*<a, b> as an exact integer."""
        if a.rank != self.rank or b.rank != self.rank:
            raise DimensionMismatchError(f"expected rank {self.rank}, got {a.rank} and {b.rank}")
        s = sum(x * y for x, y in zip(a.doubled, b.doubled))
        if self.family == "B":
            return s
        if s % 2:
            raise DomainError(f"form of {a} and {b} is not half-integral for family C")
        return s // 2

    def form(self, a: Weight, b: Weight) -> Fraction:
        """The normalized bilinear form <a, b>."""
        return Fraction(self.form_doubled(a, b), 2)

    def form_coroot(self, v: Weight, root: Weight) -> Fraction:
        """<v, root_check> = 2 form(v, root) / form(root, root)."""
        return Fraction(2 * self.form_doubled(v, root), self.form_doubled(root, root))

    # -- Weyl orbits -------------------------------------------------------

    def weyl_orbit(self, mu: Weight) -> np.ndarray:
        """All distinct images of mu under W: a read-only (|W mu|, k) int64 array
        of doubled coordinates, each image one row."""
        if not mu.is_dominant:
            raise DomainError(f"{mu} is not dominant")
        return _orbit(mu.doubled)

    # -- representation data ------------------------------------------------

    def root_coordinates(self, delta: Weight) -> tuple[int, ...] | None:
        """Coefficients of delta in the simple-root basis, or None if not in Q.

        For B the coefficients are the halved partial sums of the doubled
        coordinates; for C the last one carries an extra factor of 2.
        """
        ps, coords = 0, []
        for j, d in enumerate(delta.doubled):
            ps += d
            last = self.family == "C" and j == self.rank - 1
            div = 4 if last else 2
            if ps % div:
                return None
            coords.append(ps // div)
        return tuple(coords)

    def in_root_lattice(self, v: Weight) -> bool:
        return self.root_coordinates(v) is not None

    def check_lattice_weight(self, lam: Weight) -> None:
        """Raise DomainError unless lam is in the weight lattice: uniform parity
        on B, integral on C."""
        if not lam.has_uniform_parity or (self.family == "C" and lam.parity != 1):
            raise DomainError(f"{lam} is not in the weight lattice of {self.family}_{self.rank}")

    def dominant_weight_multiplicities(self, lam: Weight) -> dict[Weight, int]:
        """Freudenthal multiplicities of the dominant weights of V_lam."""
        if not lam.is_dominant:
            raise DomainError(f"{lam} is not dominant")
        self.check_lattice_weight(lam)
        raw = _freudenthal(self.family, self.rank, lam.doubled)
        return {Weight(m): c for m, c in raw.items()}

    def weight_multiplicities(self, lam: Weight) -> dict[Weight, int]:
        """Multiplicity of every weight of V_lam (all Weyl images included)."""
        out: dict[Weight, int] = {}
        for mu, c in self.dominant_weight_multiplicities(lam).items():
            for v in _orbit(mu.doubled).tolist():
                out[Weight(tuple(v))] = c
        return out

    def weyl_dim(self, lam: Weight) -> int:
        """Classical dimension of V_lam by the Weyl dimension formula."""
        if not lam.is_dominant:
            raise DomainError(f"{lam} is not dominant")
        self.check_lattice_weight(lam)
        return _weyl_dim(self.family, self.rank, lam.doubled)


@lru_cache(maxsize=None)
def make_root_datum(family: str, rank: int) -> RootDatum:
    """Construct (and memoize) the root datum for B_rank or C_rank."""
    return RootDatum(family, rank)


@lru_cache(maxsize=None)
def _positive_roots(family: str, rank: int) -> tuple[Weight, ...]:
    out = []
    for s in range(rank):
        for t in range(s + 1, rank):
            for sgn in (1, -1):
                v = [0] * rank
                v[s], v[t] = 2, 2 * sgn
                out.append(Weight(tuple(v)))
    short = 2 if family == "B" else 4
    for u in range(rank):
        v = [0] * rank
        v[u] = short
        out.append(Weight(tuple(v)))
    return tuple(out)


@lru_cache(maxsize=None)
def _rho(family: str, rank: int) -> Weight:
    if family == "B":
        return Weight(tuple(2 * rank - 2 * i - 1 for i in range(rank)))
    return Weight(tuple(2 * (rank - i) for i in range(rank)))


@lru_cache(maxsize=None)
def _orbit(doubled: tuple[int, ...]) -> np.ndarray:
    """Every distinct arrangement of the multiset of |entries|, with every
    sign on its nonzero entries: |W| / |Stab| rows, not the k! 2^k of W.

    Built one coordinate at a time: each partial row is extended by every
    |entry| it has not used up, with both signs unless it is 0.
    """
    values, counts = np.unique(np.abs(np.array(doubled, dtype=np.int64)), return_counts=True)
    rows = np.zeros((1, 0), dtype=np.int64)
    left = counts[None, :]
    for _ in doubled:
        grown, rest = [], []
        for t, x in enumerate(values.tolist()):
            has = np.flatnonzero(left[:, t])
            used = left[has]
            used[:, t] -= 1
            for v in ((x, -x) if x else (0,)):
                grown.append(np.column_stack((rows[has], np.full(len(has), v, dtype=np.int64))))
                rest.append(used)
        rows, left = np.concatenate(grown), np.concatenate(rest)
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _freudenthal(family: str, rank: int, lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The dominant weights of V_lam in height order, each with its multiplicity:
    ``_freudenthal_passes`` on lam alone."""
    ((doms, mult),) = _freudenthal_passes(family, rank, [lam], 0)
    return dict(zip(map(tuple, doms.tolist()), mult))


def _freudenthal_passes(family: str, rank: int, lams, budget: int):
    """Yield (doms, mults) for each highest weight lam of lams, in order: doms
    the dominant weights of V_lam as a read-only (m, rank) int64 array in
    height order (lam - mu by increasing sum of root coordinates, ties in
    lexicographic order), starting at lam, and mults their multiplicities as
    Python ints.

    The highest weights are packed in order into passes of
    ``_freudenthal_pass`` with at most budget (dominant weight, positive
    root) pairs each, unless one weight alone has more.
    """
    datum = make_root_datum(family, rank)
    roots = len(_positive_roots(family, rank))
    batch, size = [], 0
    for lam in lams:
        doms = _dominant_below(datum, lam)
        if batch and size + len(doms) * roots > budget:
            yield from _freudenthal_pass(family, rank, batch)
            batch, size = [], 0
        batch.append((lam, doms))
        size += len(doms) * roots
    if batch:
        yield from _freudenthal_pass(family, rank, batch)


def _freudenthal_pass(family: str, rank: int, batch) -> list[tuple[np.ndarray, list[int]]]:
    """Freudenthal's recursion for every (lam, doms) of batch in one numpy pass,
    as ``_freudenthal_passes`` yields it: doms is ``_dominant_below(lam)``, and
    each lam owns its dominant weights.  It returns a list, not a generator,
    so that its term arrays are freed before the caller lays out any orbit.

    All owners' weights are stacked, each owner's in its own height order, so
    one index is global.  Every (mu, a, j) term of every owner is laid out at
    once; ``sort_network`` makes each mu + j a dominant, and one lookup finds
    it among its owner's weights: ``decreasing_rank`` of the halved entries,
    at the largest halved first entry of the batch, added to the owner's own
    offset, indexes a table with C(lam_0 // 2 + rank, rank) slots an owner.
    The recursion then runs owner by owner in exact Python ints, over the
    global indices, against its owner's |lam|^2 and |lam + rho|^2.
    """
    datum = make_root_datum(family, rank)
    half = 1 if family == "B" else 2  # <a, b> = (a . b) / half in doubled coordinates
    rho = np.array(datum.rho.doubled, dtype=np.int64)
    lams = np.array([lam for lam, _ in batch], dtype=np.int64).reshape(-1, rank)
    counts = [len(doms) for _, doms in batch]
    starts = list(accumulate(counts, initial=0))
    owner = np.repeat(np.arange(len(batch)), counts)
    lex = np.array([d for _, doms in batch for d in doms], dtype=np.int64).reshape(-1, rank)
    # process by increasing height of lam - mu so higher multiplicities exist first;
    # the height is the sum of root_coordinates, and the sort is stable like sorted()
    coords = np.cumsum(lams[owner] - lex, axis=1) // 2
    coords[:, -1] //= half
    D = lex[np.lexsort((coords.sum(axis=1), owner))]
    D.setflags(write=False)
    Dt = np.ascontiguousarray(D.T)
    # every entry of a weight of V_lam has lam's parity, so halving it keeps it
    # distinct; at[offset[o] + rank of the halved weight] is its global index
    top = int(lams[:, 0].max()) // 2
    slots = [math.comb(lam[0] // 2 + rank, rank) for lam, _ in batch]
    offset = np.array(list(accumulate(slots, initial=0))[:-1], dtype=np.int64)
    at = np.full(sum(slots), -1, dtype=np.int64)
    at[offset[owner] + decreasing_rank(Dt >> 1, top)] = np.arange(len(D))

    # every (mu, a, j) term whose mu + j a lies in P(lam), in one numpy pass:
    # <mu, a> >= 0 for dominant mu, so |mu + j a|^2 grows with j, and the terms
    # of a pair are j = 1, ..., its last step
    R = np.array([r.doubled for r in _positive_roots(family, rank)], dtype=np.int64)
    Rt = np.ascontiguousarray(R.T)
    r_norm = (R * R).sum(axis=1) // half
    top_norm = (lams * lams).sum(axis=1) // half
    mu_i, a_i = (x.ravel() for x in np.indices((len(D), len(R))))
    pair = (D @ Rt).ravel() // half
    excess = ((D * D).sum(axis=1) // half - top_norm[owner])[mu_i]
    steps = _last_step(pair, excess, r_norm[a_i])
    mu_i, a_i, pair = (np.repeat(x, steps) for x in (mu_i, a_i, pair))
    j = np.arange(1, len(mu_i) + 1) - np.repeat(np.cumsum(steps) - steps, steps)
    # (k, terms), one contiguous row per coordinate
    w = np.abs(np.take(Dt, mu_i, axis=1) + j * np.take(Rt, a_i, axis=1))
    sort_network(w)  # its dominant image
    # a column with entries at most its owner's lam_0 has an exact rank inside
    # the owner's slots; any other column is masked, so its slot may be clipped
    term_owner = owner[mu_i]
    tgt = at.take(offset[term_owner] + decreasing_rank(w >> 1, top), mode="clip")
    hit = (w[0] <= lams[term_owner, 0]) & (tgt >= 0)
    src, tgt, coef = mu_i[hit], tgt[hit], 2 * (pair[hit] + j[hit] * r_norm[a_i[hit]])
    ends = np.cumsum(np.bincount(src, minlength=len(D))).tolist()
    tgt, coef = tgt.tolist(), coef.tolist()
    casimir = (((D + rho) ** 2).sum(axis=1) // half).tolist()
    top_casimir = (((lams + rho) ** 2).sum(axis=1) // half).tolist()

    # the recursion itself, in exact Python ints; each owner's first weight is
    # its lam, the only one of height 0
    mult, out = [0] * len(D), []
    for o, (lam, _) in enumerate(batch):
        first, last = starts[o], starts[o + 1]
        mult[first] = 1
        for i in range(first + 1, last):
            lo, hi = ends[i - 1], ends[i]
            num = sum(map(mul, map(mult.__getitem__, tgt[lo:hi]), coef[lo:hi]))
            denom = top_casimir[o] - casimir[i]
            if num % denom:
                raise AssertionError(
                    f"Freudenthal recursion not integral at {tuple(D[i].tolist())} below {lam}")
            mult[i] = num // denom
        out.append((D[first:last], mult[first:last]))
    return out


def _last_step(pair: np.ndarray, excess: np.ndarray, r_norm: np.ndarray) -> np.ndarray:
    """The largest j >= 0 with excess + j (2 pair + j r_norm) <= 0, elementwise.

    For a dominant mu in P(lam) and a positive root a (pair = <mu, a> >= 0,
    excess = |mu|^2 - |lam|^2 <= 0, r_norm = |a|^2 > 0) that is the last step
    j with |mu + j a|^2 <= |lam|^2.  It is the floor of the quadratic's larger
    root, taken in float64 and then corrected and asserted in exact int64.
    """
    def fits(j):
        return excess + j * (2 * pair + j * r_norm) <= 0

    j = np.floor((np.sqrt(pair * pair - r_norm * excess) - pair) / r_norm).astype(np.int64)
    j += fits(j + 1)
    j -= ~fits(j)
    if not ((j >= 0) & fits(j) & ~fits(j + 1)).all():
        raise AssertionError("the last Freudenthal step is off by more than one")
    return j


def sort_network(w: np.ndarray, parity: np.ndarray | None = None) -> None:
    """Sort every column of w, a (k, M) array, in descending order, in place.

    An odd-even transposition network: k rounds of compare-exchanges between
    the adjacent rows (i, i+1), i even in even rounds and odd in odd ones,
    each one ``np.maximum`` and one ``np.minimum`` over all M columns.  With
    ``parity``, a bool (M,) array, each exchange that swaps a strictly
    smaller entry up toggles its column, so it gains the parity of the
    sorting permutation (the number of strict inversions).
    """
    k = len(w)
    for rnd in range(k):
        for i in range(rnd % 2, k - 1, 2):
            a, b = w[i], w[i + 1]
            if parity is not None:
                parity ^= a < b
            top = np.maximum(a, b)
            np.minimum(a, b, out=b)
            a[...] = top


def decreasing_rank(y: np.ndarray, top: int) -> np.ndarray:
    """The place of each column of y, a (k, M) integer array, among the weakly
    decreasing k-tuples with entries in [0, top] in lexicographic order, as int64.

    It is the combinatorial-number-system rank sum_i C(y_i + k-1-i, k-i) of
    the strictly decreasing y_i + k-1-i, a bijection from those tuples onto
    [0, C(top + k, k)), read off ``_rank_table``.  Entries are clipped into
    [0, top] first, so any column gets some place in that range; only a
    weakly decreasing column in range gets its own.
    """
    table = _rank_table(len(y), top)
    out = table[0].take(y[0], mode="clip")
    for i in range(1, len(y)):
        out += table[i].take(y[i], mode="clip")
    return out


@lru_cache(maxsize=None)
def _rank_table(k: int, top: int) -> np.ndarray:
    """(k, top + 1) read-only int64: entry [i, y] is C(y + k-1-i, k-i)."""
    table = np.array([[math.comb(y + k - 1 - i, k - i) for y in range(top + 1)] for i in range(k)],
                     dtype=np.int64)
    table.setflags(write=False)
    return table


def _dominant_below(datum: RootDatum, lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Dominant weights mu <= lam in the root order (candidates for P(lam)), in lex order.

    mu <= lam when every partial sum of lam - mu is nonnegative and even, the
    last one divisible by 4 for type C (see ``root_coordinates``).  Entries
    are chosen left to right, each at most the one before, in increasing
    order, so the tuples come out lexicographically sorted.
    """
    k = datum.rank
    last_div = 4 if datum.family == "C" else 2
    out = []

    def rec(prefix: tuple[int, ...], top: int, ps: int):
        j = len(prefix)
        for x in range(lam[0] % 2, top + 1, 2):
            s = ps + lam[j] - x
            if s < 0:
                break
            if s % (last_div if j == k - 1 else 2):
                continue
            if j == k - 1:
                out.append(prefix + (x,))
            else:
                rec(prefix + (x,), x, s)

    rec((), lam[0], 0)
    return out


@lru_cache(maxsize=None)
def _weyl_dim(family: str, rank: int, lam: tuple[int, ...]) -> int:
    datum = make_root_datum(family, rank)
    rho = datum.rho.doubled
    num, den = map(math.prod, root_pairings(datum, [np.add(lam, rho), rho]).tolist())
    if num % den:
        raise AssertionError(f"Weyl dimension formula not integral at {lam}")
    return num // den


def root_pairings(datum: RootDatum, vectors, coroot: bool = False) -> np.ndarray:
    """<v, alpha> (or <v, alpha_check> with ``coroot``) as exact int64: one row per
    doubled vector v, one column per positive root alpha in ``positive_roots`` order.

    In doubled coordinates <v, alpha> = dot(v, alpha) / d with d = 2 on B and 4
    on C, and <v, alpha_check> = 2<v, alpha>/<alpha, alpha> = dot / (|alpha|^2 / 2)
    on both.  Each d is a power of two, so the division is an exact shift once
    the bits below it are checked to be 0.  Every pairing must be integral.
    """
    roots, low_bits, shift = _root_matrix(datum.family, datum.rank, coroot)
    dots = np.asarray(vectors, dtype=np.int64) @ roots
    if (dots & low_bits).any():
        raise AssertionError("a root pairing is not an integer")
    return dots >> shift


@lru_cache(maxsize=None)
def _root_matrix(family: str, rank: int, coroot: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(doubled positive roots as columns, d - 1 and log2 d for the divisor d
    of each column), read-only."""
    roots = np.array([a.doubled for a in _positive_roots(family, rank)], dtype=np.int64).T
    form_d = 2 if family == "B" else 4
    d = (roots * roots).sum(axis=0) // 2 if coroot else np.full(roots.shape[1], form_d)
    shift = np.log2(d).astype(np.int64)
    if not np.array_equal(1 << shift, d):
        raise AssertionError(f"a root pairing divisor of {family}_{rank} is not a power of two")
    low_bits = d - 1
    for a in (roots, low_bits, shift):
        a.flags.writeable = False
    return roots, low_bits, shift
