"""Alcove enumeration, affine Weyl reduction, and fusion coefficients.

The truncated tensor product at an odd root of unity is computed by
Racah-Speiser summation over the weight multiset P(lambda) with each shifted
weight reduced into the alcove under the rho-shifted dot action of the
affine Weyl group.  In doubled rho-shifted coordinates that action is the
signed permutations times the translations 2 ell L (L = Z^k for type B, the
even-sum lattice D_k for type C), so ``_reduce_rows``, the one
affine-reduction kernel, reduces any batch of rows in one closed-form numpy
pass over its k coordinate columns, in the rows' own integer dtype: one
floor division by 2 ell for each entry's remainder, the odd-even
transposition network ``rootdata.sort_network`` (which also counts the
sign), one fold for type C.

``fuse_pairs`` is the one Racah-Speiser kernel: it fuses many label pairs at
once into an exact (pairs, labels) int64 array.  It finds every pair member
among the labels with one ``label_positions`` call, orders each pair by the
cell's cached Weyl-dimension ranks (``_dimension_ranks``), groups the pairs
by their smaller factor, takes the factors' weight multisets from
``rootdata._freudenthal_passes``, many factors a pass, with no ``Weight``
made for a dominant weight, lays out each factor's distinct Weyl images once
(``_orbit_blocks``: each orbit the distinct signed permutations of its
weight, gathered from a read-only int8 template cached per pattern of equal
and zero entries and grown in numpy one coordinate at a time, never the
whole Weyl group), shifts each block of them by a run of partners'
mu + rho, at most _CHUNK_ROWS rows at a time, and reduces those, all in
the narrowest signed dtype that holds 6 ell (int16 up to ell = 5,461).
``fuse`` and ``fuse_matrix`` are views of it.  There is no reduce cache.
Reduced rows find their labels by ``label_positions``, the one array alcove
lookup: a table indexed by the parity and the combinatorial-number-system
rank (``rootdata.decreasing_rank``) of the halved entries, confirmed by a
compare of the whole row.

The two-stage route (classical decomposition first, affine
antisymmetrization second), ``fuse_two_stage_pairs``, is the test suite's
oracle for ``fuse_pairs``, with the same layout; ``verify`` checks its
sampled rows against the Verlinde rows of ``qchar.verlinde_rows`` instead,
which run no fusion kernel, so only tests call the route.  It stays here,
not in ``tests/oracles.py``, while the benchmark's tracer binds
``fuse_two_stage`` by name.  It decomposes one pair at a time.  Its first
stage, ``_classical_rows``, is its own exact int64 numpy pass: the Weyl
orbits of the smaller factor's dominant weights from
``RootDatum.weyl_orbit`` (read-only arrays with their own enumeration) are
stacked and shifted, one contiguous row per coordinate, and made dominant by
comparing each pair of coordinates once, which gives the sign, the walls and
each entry's slot.  That stage never calls ``_orbit_blocks``,
``_reduce_rows``, ``sort_network`` or ``label_positions``, the second stage
keeps its own label map, and ``fuse_pairs`` never calls ``weyl_orbit``, so a
fault in either enumeration, sort or lookup cannot hide in both sides of the
comparison.  The two routes share only ``_reduce_rows``, which the second
stage applies to the classical summands; ``tests/oracles.py`` checks that
kernel against the reflection loop it replaced and a breadth-first search of
the orbit.

A whole table fuses only the generator rows, one ``fuse_matrix`` each: the
fundamental weights e_1 + ... + e_i (i < k) and the spin weight for type B,
e_1 + ... + e_i (i <= r) for type C, those inside the alcove
(``_generator_indices``).  Every other label nu is filled in alcove order by
one step of exact integer matrix algebra, ``_recursion_row``:
N_nu = N_{nu-g} N_g - sum_{sigma != nu} N_{g,nu-g}^sigma N_sigma, from a
generator g that reaches nu (``_reaching``: N_{g,nu-g}^nu = 1 and every
sigma precedes nu).  The product N_{nu-g} N_g runs in float64 and is cast
back; the build asserts n (max N)^2 < 2**53, which makes it exact.
The table is stored as int16 (2 bytes an entry, n^3 of them: 1.6 GB at
B(5,23), n = 924, whose max N is 8,904); each row is formed in int64 and the
whole table widens before a row that leaves the range is stored, so nothing
wraps.  Every reader compares or indexes the table, or casts to int64 or
float64 before arithmetic.

``FusionTable.check_associativity`` certifies associativity from the same
generator rows and the cyclic vector e_0 (the unit): L_0 = I, L_c e_0 = e_c
for every c, the generator matrices commute, and every other label is
reached in order and equals ``_recursion_row`` run on the table.  That costs
|G|^2 n^3 + n^4 flops through BLAS, against |G| n^4 for the generator
identity and n^5 for contracting every pair (both oracles in
``tests/oracles.py``), and no temporary is larger than n^2.  The
whole-table readers ``check_sector_grading`` and ``to_json`` walk the first
axis.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, groupby

import numpy as np

from .errors import ConfigurationError, DomainError
from .rootdata import (RootDatum, Weight, _freudenthal_passes, decreasing_rank, make_root_datum,
                       root_pairings, sort_network)

# rows reduced at once by fuse_pairs, and determinants per block of
# qchar.alternating_sum, the two readers; fuse_pairs' temporaries are a few
# (rows, rank) int16 arrays, and 1 << 15 rows already raised the peak RSS of
# 100 B(4,21) queries by about a tenth over 1 << 13
_CHUNK_ROWS = 1 << 13

# the dtype FusionTable.build starts the table in; it widens the whole table
# when a row leaves this range.  int16 holds max N at every cell up to
# B(5,23) (8,904) at a quarter of int64's n^3 bytes
_TABLE_DTYPE = np.int16


@dataclass(frozen=True)
class AlcoveParams:
    """A root datum together with an odd level ell defining the alcove C_ell."""

    datum: RootDatum
    ell: int

    def __post_init__(self):
        if self.ell < 3 or self.ell % 2 == 0:
            raise ConfigurationError(f"ell must be an odd integer >= 3, got {self.ell}")
        # the alcove must contain gamma = ((ell-2k)/2, ..., (ell-2k)/2) resp. be nonempty
        if self.datum.family == "B" and self.ell <= 2 * self.datum.rank:
            raise ConfigurationError(
                f"ell={self.ell} too small for B_{self.datum.rank} (need ell > 2k)")
        if self.datum.family == "C" and self.ell <= 2 * self.datum.rank - 1:
            raise ConfigurationError(
                f"ell={self.ell} too small for C_{self.datum.rank}")

    @property
    def rank(self) -> int:
        return self.datum.rank

    def _pairing_theta(self, v_doubled: tuple[int, ...]) -> int:
        """<v, theta_check> as an exact integer (v in the weight lattice)."""
        if self.datum.family == "B":
            return v_doubled[0]
        return (v_doubled[0] + v_doubled[1]) // 2

    def contains(self, mu: Weight) -> bool:
        """Whether mu labels a simple object: dominant and <mu+rho, theta_check> < ell."""
        if mu.rank != self.rank or not mu.has_uniform_parity:
            return False
        if self.datum.family == "C" and mu.parity != 1:
            return False
        if not mu.is_dominant:
            return False
        shifted = (mu + self.datum.rho).doubled
        return self._pairing_theta(shifted) < self.ell


def alcove_enumerate(params: AlcoveParams) -> tuple[Weight, ...]:
    """The labels of C_ell in graded lexicographic order on doubled coordinates."""
    return _alcove_enumerate(params.datum.family, params.datum.rank, params.ell)


@lru_cache(maxsize=None)
def _alcove_enumerate(family: str, rank: int, ell: int) -> tuple[Weight, ...]:
    params = AlcoveParams(make_root_datum(family, rank), ell)
    out = []
    parities = (0, 1) if family == "B" else (0,)
    # cap on the doubled first coordinate from <mu+rho, theta_check> < ell
    cap = ell - 2 * rank if family == "B" else 2 * ell - 4 * rank
    for par in parities:
        # the weakly decreasing doubled tuples of this parity, first entry <= cap
        top = cap - (cap - par) % 2
        for tup in combinations_with_replacement(range(top, par - 1, -2), rank):
            w = Weight(tup)
            if params.contains(w):
                out.append(w)
    out.sort(key=lambda w: (sum(w.doubled), w.doubled))
    return tuple(out)


def affine_reduce(params: AlcoveParams, xi: Weight) -> tuple[Weight | None, int]:
    """Reduce xi into C_ell under the dot action of the affine Weyl group.

    Returns (label, sign) where sign is the signature of the reducing
    element (the affine reflection counts -1), or (None, 0) when xi + rho
    lies on a reflection hyperplane.
    """
    if xi.rank != params.rank:
        raise DomainError(f"expected rank {params.rank}, got {xi.rank}")
    signs, labels = _reduce_rows(params, np.array([(xi + params.datum.rho).doubled]))
    sign = int(signs[0])
    return (None, 0) if sign == 0 else (Weight(tuple(labels[0].tolist())), sign)


def _reduce_rows(params: AlcoveParams, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce each row of V, a rho-shifted vector in doubled coordinates, into C_ell.

    Returns (signs, labels): signs[i] is the signature of the affine Weyl
    element taking row i into the rho-shifted alcove, 0 when the row lies on a
    reflection hyperplane, and labels[i] the label it reaches (meaningless
    where signs[i] is 0).

    In these coordinates the dot action is the signed permutations times the
    translations 2 ell L, with L = Z^k for type B and L = D_k (even coordinate
    sum) for type C, so one pass reduces every row.  It runs on the k
    coordinate columns of V, transposed once to contiguous (k, M), in V's own
    integer dtype: the caller keeps |V| + ell within 6 ell and 6 ell within
    the dtype (``_reduction_bound``).  With q = (v + ell) // 2 ell, one floor
    division, each entry v goes to r = v + ell - 2 ell q - ell in [-ell, ell),
    and ``sort_network`` sorts |r| in descending order, adding each swap to
    the sign parity.  Translations are
    even, so the sign is (-1) to the number of negative entries plus the
    inversions of |r|.  For type C a row whose quotients q have odd sum also
    folds its largest |r| to 2 ell - |r|, the one translation by 2 ell e_i
    that keeps it in the closed alcove, and toggles that entry's sign; the
    folded entry stays the largest.  The row is on a wall iff two adjacent
    sorted entries are equal, the last one is 0, or w_0 = ell (type B),
    w_0 + w_1 = 2 ell (type C).  The signs are int64, the labels in V's dtype.
    """
    ell, family = params.ell, params.datum.family
    rho = np.array(params.datum.rho.doubled, dtype=V.dtype)
    w = np.add(V.T, ell, order="C")
    q = w // (2 * ell)
    if family == "C":
        fold = q.sum(axis=0) % 2 == 1
    q *= 2 * ell
    w -= q
    w -= ell
    odd = np.logical_xor.reduce(w < 0, axis=0)
    np.abs(w, out=w)
    sort_network(w, odd)
    wall = (w[-1] == 0) | (w[:-1] == w[1:]).any(axis=0)
    if family == "C":
        w[0] = np.where(fold, 2 * ell - w[0], w[0])
        odd ^= fold
        wall |= w[0] + w[1] == 2 * ell
    else:
        wall |= w[0] == ell
    keep = ~wall
    return keep - 2 * (odd & keep), (w - rho[:, None]).T


def _classical_rows(datum: RootDatum, pairs) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """V_lam (x) V_mu classically for every pair (lam, mu), one pair at a time.

    Yields (p, labels, mults) in pair order: p the position of the pair in
    ``pairs``, labels (m, k) in doubled coordinates and in lexicographic
    order, mults (m,) positive.  One exact int64 pass of Racah-Speiser over
    P(lam), lam the factor of smaller Weyl dimension: every Weyl image of
    every dominant weight of lam (from ``datum.weyl_orbit``) is shifted by
    mu + rho, in the transposed (k, M) layout, one contiguous row per
    coordinate.  The sign parity starts as that of the negative entries of
    each column; with a = |v|, each coordinate pair i < j toggles it where
    a[i] < a[j] (an inversion of the descending order), a column stays live
    only if it has no zero and no two equal entries, and each entry's slot in
    the dominant image is the number of entries above it.  The live columns
    are scattered into that image one coordinate at a time and summed on a
    ravel of the label's entries.  It counts ranks where ``_reduce_rows``
    runs a sorting network, and shares no code with ``fuse_pairs``, which it
    is an oracle for.
    """
    k = datum.rank
    rho = np.array(datum.rho.doubled, dtype=np.int64)
    for p, (lam, mu) in enumerate(pairs):
        for x in (lam, mu):
            if not x.is_dominant:
                raise DomainError(f"{x} is not dominant")
        if datum.weyl_dim(lam) > datum.weyl_dim(mu):
            lam, mu = mu, lam
        doms = datum.dominant_weight_multiplicities(lam)
        orbits = [datum.weyl_orbit(d) for d in doms]
        mult = np.repeat(np.fromiter(doms.values(), dtype=np.int64, count=len(doms)),
                         [len(orbit) for orbit in orbits])
        shift = np.array(mu.doubled, dtype=np.int64) + rho
        a = np.add(np.concatenate(orbits).T, shift[:, None], order="C")
        odd = np.logical_xor.reduce(a < 0, axis=0)
        np.abs(a, out=a)
        live = np.logical_and.reduce(a > 0, axis=0)
        # slots count to k - 1; int16 runs the loop faster than intp at rank 7
        place = np.zeros(a.shape, dtype=np.int16)
        for i, j in combinations(range(k), 2):
            below = a[i] < a[j]
            odd ^= below
            live &= a[i] != a[j]
            place[i] += below
            place[j] += ~below
        cols = np.flatnonzero(live)
        w = np.empty((k, len(cols)), dtype=np.int64)
        at = np.arange(len(cols))
        for i in range(k):
            w[place[i, cols], at] = a[i, cols]
        w -= rho[:, None]
        # each coordinate raveled on its own range [0, max], so the keys sort lexicographically
        dims = tuple((w.max(axis=1, initial=0) + 1).tolist())
        keys, where = np.unique(np.ravel_multi_index(w, dims), return_inverse=True)
        totals = np.zeros(len(keys), dtype=np.int64)
        np.add.at(totals, where, np.where(odd[cols], -mult[cols], mult[cols]))
        if (totals < 0).any():
            raise AssertionError(f"negative classical multiplicity in {lam} (x) {mu}")
        nonzero = totals != 0
        yield p, np.stack(np.unravel_index(keys[nonzero], dims), axis=1), totals[nonzero]


def classical_tensor(datum: RootDatum, lam: Weight, mu: Weight) -> dict[Weight, int]:
    """Decompose V_lam (x) V_mu classically (Racah-Speiser over P(lam))."""
    _, labels, mults = next(_classical_rows(datum, [(lam, mu)]))
    return {Weight(tuple(lab)): c for lab, c in zip(labels.tolist(), mults.tolist())}


def fuse_pairs(params: AlcoveParams, pairs) -> np.ndarray:
    """N_{lam,mu}^nu for every pair (lam, mu): row p, column nu in ``alcove_enumerate`` order.

    The one Racah-Speiser kernel.  Every pair member is found among the labels
    by one ``label_positions`` call; the first one in pair order that is not a
    label is a DomainError.  The pairs are grouped by their smaller factor
    (by Weyl dimension, ``_dimension_ranks``; a tie keeps the pair's order),
    the groups in order of first appearance, and the factors' dominant
    weights come from ``rootdata._freudenthal_passes``, as many factors a
    pass as fit in _CHUNK_ROWS // 4 (dominant weight, positive root) pairs:
    such a pair spreads into 1.4 to 2.9 Freudenthal terms on average over
    the labels of B(4,15) to B(8,23), so a pass lays out at most about
    _CHUNK_ROWS terms unless one factor has more.  For each factor lam, each
    block of distinct Weyl images of its dominant weights (``_orbit_blocks``)
    is shifted by mu + rho for a run of the other factors mu of its group,
    at most _CHUNK_ROWS rows unless one orbit block is larger, and reduced
    by ``_reduce_rows``.  Each live row adds sign * multiplicity at
    (pair, label), the label found by ``label_positions``.
    The images, shifts and reduced rows are laid out as (k, rows) columns in
    the narrowest signed dtype that holds 6 ell (``_narrowest``), which holds
    every entry the reduction forms (``_reduction_bound``, asserted on each
    block): on B an image entry is at most lam_0 <= ell - 2k in absolute
    value and (mu + rho)_0 < ell, on C lam_0 <= 2 ell - 4r and
    (mu + rho)_0 < 2 ell.  Signs, multiplicities and the output are exact
    int64; nothing is cached between calls but the label slots, dimension
    ranks and orbit templates.
    """
    datum, k = params.datum, params.rank
    labels = alcove_enumerate(params)
    out = np.zeros((len(pairs), len(labels)), dtype=np.int64)
    members = [w for lam, mu in pairs for w in (lam, mu)]
    # a member of another rank gets a row that is no label, so it fails with the rest
    stray = (-1,) * k
    try:
        rows = np.array([w.doubled if w.rank == k else stray for w in members],
                        dtype=np.int64).reshape(-1, k)
    except OverflowError:  # an entry past int64 is outside every alcove
        rows = np.array([w.doubled if params.contains(w) else stray for w in members],
                        dtype=np.int64).reshape(-1, k)
    at = label_positions(params, rows)
    bad = np.flatnonzero(at < 0)
    if bad.size:
        raise DomainError(f"{members[bad[0]]} is not in the alcove C_{params.ell}")
    first, second = at[0::2], at[1::2]
    place = _dimension_ranks(datum.family, k, params.ell)
    swap = place[first] > place[second]
    small, big = np.where(swap, second, first), np.where(swap, first, second)
    factors, first_pair, group = np.unique(small, return_index=True, return_inverse=True)
    order = np.argsort(first_pair).tolist()
    _, label_columns, _ = _label_slots(datum.family, k, params.ell)
    rho = np.array(datum.rho.doubled, dtype=np.int64)
    dtype = _narrowest(6 * params.ell)
    multisets = _freudenthal_passes(datum.family, k, [labels[factors[g]].doubled for g in order],
                                    _CHUNK_ROWS // 4)
    for g, (doms, mults) in zip(order, multisets):
        ids = np.flatnonzero(group == g)
        shifts = label_columns.take(big[ids], axis=1).astype(np.int64) + rho[:, None]
        reach = int(shifts.max())
        shifts = shifts.astype(dtype)
        for images, mult in _orbit_blocks(doms, mults, dtype):
            _reduction_bound(params.ell, int(np.abs(images).max()) + reach, dtype)
            m = len(images)
            step = max(1, _CHUNK_ROWS // m)
            columns = np.ascontiguousarray(images.T)[:, None, :]
            for lo in range(0, len(ids), step):
                # row r of V is images[r % m] shifted for pair ids[lo + r // m];
                # V and labels are views of contiguous (k, rows) arrays
                V = (columns + shifts[:, lo:lo + step, None]).reshape(k, -1).T
                signs, reduced = _reduce_rows(params, V)
                live = np.flatnonzero(signs)
                cols = label_positions(params, reduced.T.take(live, axis=1).T)
                if (cols < 0).any():
                    raise AssertionError("affine reduction reached a weight outside the alcove")
                np.add.at(out, (ids[lo + live // m], cols), signs[live] * mult[live % m])
    negative = np.flatnonzero((out < 0).any(axis=1))
    if negative.size:
        lam, mu = pairs[negative[0]]
        raise AssertionError(f"negative fusion coefficient in {lam} (x) {mu}")
    return out


@lru_cache(maxsize=None)
def _dimension_ranks(family: str, rank: int, ell: int) -> np.ndarray:
    """Read-only int64, one entry a label in ``alcove_enumerate`` order: the
    place of the label's Weyl dimension among the cell's distinct ones, so
    that places compare as the dimensions do, ties included.

    The dimension is prod <lam + rho, a> / prod <rho, a> over the positive
    roots a, so the numerators, exact Python ints from the int64 pairings,
    order the labels as the dimensions do; none is formed in int64, which
    the dimensions outgrow (C(20,45) has labels past 2**63).
    """
    datum = make_root_datum(family, rank)
    labels = np.array([w.doubled for w in _alcove_enumerate(family, rank, ell)], dtype=np.int64)
    nums = [math.prod(row) for row in root_pairings(datum, labels + datum.rho.doubled).tolist()]
    place = {x: i for i, x in enumerate(sorted(set(nums)))}
    out = np.array([place[x] for x in nums], dtype=np.int64)
    out.setflags(write=False)
    return out


def label_positions(params: AlcoveParams, rows: np.ndarray) -> np.ndarray:
    """The ``alcove_enumerate`` index of each row of ``rows``, an (m, rank)
    integer array of doubled coordinates, or -1 where the row is not a label.

    A row's slot (``_label_slots``) is 2 ``rootdata.decreasing_rank`` of its
    halved entries, clipped into the labels' range, plus the parity of its
    first entry.  Every label has a slot of its own, so the label held there
    is the only candidate, and it counts only if the whole row equals it.
    """
    index, columns, top = _label_slots(params.datum.family, params.rank, params.ell)
    y = rows.T
    pos = index.take((decreasing_rank(y >> 1, top) << 1) | (y[0] & 1))
    # a column at a time; an empty slot holds -1, which gathers the last
    # label and gives -1 whatever the compare says
    hit = np.logical_and.reduce([column.take(pos) == x for column, x in zip(columns, y)])
    return np.where(hit, pos, -1)


@lru_cache(maxsize=None)
def _label_slots(family: str, rank: int, ell: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(index, columns, top), the arrays read-only.  top is the largest halved
    entry of a label.  index has 2 C(top + rank, rank) slots: slot 2 r + p
    holds the ``alcove_enumerate`` index of the label of parity p whose
    halved entries have ``decreasing_rank`` r, and every other slot holds -1.
    columns are the labels' doubled coordinates as contiguous (rank, n)
    columns in the narrowest signed dtype that holds them."""
    labels = np.array([w.doubled for w in _alcove_enumerate(family, rank, ell)], dtype=np.int64)
    top = int(labels[:, 0].max()) // 2
    columns = np.ascontiguousarray(labels.T, dtype=_narrowest(2 * top + 1))
    index = np.full(2 * math.comb(top + rank, rank), -1, dtype=np.int64)
    index[(decreasing_rank(columns >> 1, top) << 1) | (columns[0] & 1)] = np.arange(len(labels))
    for a in (index, columns):
        a.setflags(write=False)
    return index, columns, top


def fuse(params: AlcoveParams, lam: Weight, mu: Weight,
         _cache: None = None) -> dict[Weight, int]:
    """Fusion coefficients N_{lam,mu}^: the dict view of one ``fuse_pairs`` row,
    keyed by label in ``alcove_enumerate`` order.  Nothing is cached between
    calls; ``_cache`` must stay None."""
    if _cache is not None:
        raise TypeError("fuse has no reduce cache")
    row = fuse_pairs(params, [(lam, mu)])[0]
    labels = alcove_enumerate(params)
    return {labels[c]: int(row[c]) for c in np.flatnonzero(row)}


def fuse_matrix(params: AlcoveParams, lam: Weight) -> np.ndarray:
    """(N_lam)[nu, mu] = N_{lam,mu}^nu over ``alcove_enumerate(params)``: one
    ``fuse_pairs`` pass over every mu, the one place that builds a matrix."""
    return fuse_pairs(params, [(lam, mu) for mu in alcove_enumerate(params)]).T


def _orbit_blocks(doms: np.ndarray, mults, dtype):
    """Yield (images, mults): the distinct Weyl images of the dominant weights
    doms, an (m, rank) integer array of doubled coordinates, in the signed
    integer dtype, each with its weight's multiplicity (mults, one a weight)
    as int64.

    Weights with the same runs of equal entries share one orbit template
    (``_orbit_template``).  Each weight's pattern (bit i set where entry i
    equals entry i + 1, bit rank - 1 where the last entry is 0) is found
    for all of them at once, and the weights are sorted stably by pattern,
    so a template is gathered for a slice of them, as many at a time as fit
    in _CHUNK_ROWS rows.  Those pieces are packed in order into blocks of
    whole orbits, at most _CHUNK_ROWS images unless one orbit is larger.
    """
    k = doms.shape[1]
    pattern = ((doms[:, 1:] == doms[:, :-1]) @ (1 << np.arange(k - 1, dtype=np.int64))
               + np.where(doms[:, -1] == 0, 1 << (k - 1), 0))
    order = np.argsort(pattern, kind="stable")
    ends = (np.flatnonzero(np.diff(pattern[order])) + 1).tolist() + [len(doms)]
    doms, mults = doms[order].astype(dtype), np.array(mults, dtype=np.int64)[order]
    images, blocks, size, lo = [], [], 0, 0
    for hi in ends:
        d = doms[lo].tolist()
        pos, sgn = _orbit_template((*(len(list(run)) for x, run in groupby(d) if x), d.count(0)))
        step = max(1, _CHUNK_ROWS // len(pos))
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            piece = (doms[a:b].take(pos, axis=1) * sgn).reshape(-1, k)
            if images and size + len(piece) > _CHUNK_ROWS:
                yield np.concatenate(images), np.concatenate(blocks)
                images, blocks, size = [], [], 0
            images.append(piece)
            blocks.append(np.repeat(mults[a:b], len(pos)))
            size += len(piece)
        lo = hi
    if images:
        yield np.concatenate(images), np.concatenate(blocks)


@lru_cache(maxsize=None)
def _orbit_template(runs: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(pos, sgn), read-only int8: d[pos] * sgn is the Weyl orbit of d, each image once.

    runs lists the lengths of the runs of equal nonzero entries of the
    dominant doubled tuple d, left to right, then its number of zeros.  The
    orbit is every arrangement of the runs' values with every sign on the
    nonzero entries: pos picks the first entry of a run, sgn the sign.  The
    rows grow one coordinate at a time: a choice is a run with a sign (the
    zeros have one, +), and each partial row is extended by every choice
    whose run it has not used up.
    """
    nonzero = runs[:-1]
    run = np.repeat(np.arange(len(runs)), [2] * len(nonzero) + [1])
    first = np.array(list(accumulate((0, *nonzero))), dtype=np.int8)[run]
    sign = np.array([1, -1] * len(nonzero) + [1], dtype=np.int8)
    pos = sgn = np.zeros((1, 0), dtype=np.int8)
    left = np.array([runs], dtype=np.int8)
    for _ in range(sum(runs)):
        row, choice = np.nonzero(left[:, run] > 0)
        pos = np.column_stack((pos[row], first[choice]))
        sgn = np.column_stack((sgn[row], sign[choice]))
        left = left[row] - (run[choice, None] == np.arange(len(runs)))
    for a in (pos, sgn):
        a.setflags(write=False)
    return pos, sgn


def fuse_two_stage_pairs(params: AlcoveParams, pairs) -> np.ndarray:
    """Oracle path for ``fuse_pairs``, same layout: each pair's classical
    decomposition (``_classical_rows``), then its affine antisymmetrization.

    The summands of a pair are reduced by ``_reduce_rows`` and added into its
    row through a label map of its own, a dict of the alcove labels.  Like
    ``fuse_pairs`` it rejects a pair member outside the alcove and raises
    AssertionError on a negative coefficient.
    """
    for lam, mu in pairs:
        for w in (lam, mu):
            if not params.contains(w):
                raise DomainError(f"{w} is not in the alcove C_{params.ell}")
    labels = alcove_enumerate(params)
    index = {w.doubled: c for c, w in enumerate(labels)}
    rho = np.array(params.datum.rho.doubled, dtype=np.int64)
    out = np.zeros((len(pairs), len(labels)), dtype=np.int64)
    for p, classical, mults in _classical_rows(params.datum, pairs):
        signs, reduced = _reduce_rows(params, classical + rho)
        live = signs != 0
        found = [index.get(t) for t in map(tuple, reduced[live].tolist())]
        if None in found:
            raise AssertionError("affine antisymmetrization reached a weight outside the alcove")
        np.add.at(out[p], np.array(found, dtype=np.int64), signs[live] * mults[live])
        if (out[p] < 0).any():
            lam, mu = pairs[p]
            raise AssertionError(f"negative fusion coefficient in {lam} (x) {mu}")
    return out


def fuse_two_stage(params: AlcoveParams, lam: Weight, mu: Weight) -> dict[Weight, int]:
    """Oracle path: classical decomposition, then affine antisymmetrization."""
    row = fuse_two_stage_pairs(params, [(lam, mu)])[0]
    labels = alcove_enumerate(params)
    return {labels[c]: int(row[c]) for c in np.flatnonzero(row)}


def _generators(datum: RootDatum) -> list[tuple[int, ...]]:
    """Doubled fundamental weights generating the ring: e_1 + ... + e_i for
    i < k plus the spin weight (type B), or for i <= r (type C)."""
    k = datum.rank
    top = k - 1 if datum.family == "B" else k
    gens = [(2,) * i + (0,) * (k - i) for i in range(1, top + 1)]
    if datum.family == "B":
        gens.append((1,) * k)
    return gens


def _exact_float_bound(n: int, top: int) -> None:
    """Raise unless n * top**2 < 2**53, so float64 products of n x n matrices
    with nonnegative integer entries at most top are exact."""
    if n * int(top) ** 2 >= 2 ** 53:
        raise AssertionError(f"float64 fusion products inexact: n={n}, max N of the table = {top}")


def _reduction_bound(ell: int, top: int, dtype) -> None:
    """Raise unless ``_reduce_rows`` stays exact in dtype on rows whose entries
    are at most top in absolute value: every entry it forms (v + ell, the
    multiple of 2 ell at most v + ell, 2 ell - w_0, w_0 + w_1) is at most
    top + ell in absolute value, which must be at most 6 ell, and 6 ell must
    fit the dtype."""
    if top + ell > 6 * ell or 6 * ell > np.iinfo(dtype).max:
        raise AssertionError(f"rows up to {top} at ell={ell} overflow {np.dtype(dtype)}")


def _generator_indices(datum: RootDatum, index: dict[Weight, int]) -> list[int]:
    """The label indices of the generators (``_generators``) that lie in the alcove."""
    return [index[g] for g in map(Weight, _generators(datum)) if g in index]


def _reaching(N: np.ndarray, labels, index: dict[Weight, int], gens, v: int) -> Iterator[tuple[int, int]]:
    """(g, rest) for each g in gens that reaches nu = labels[v]: rest, the
    index of nu - g, comes before v, N_{g,nu-g}^nu = 1, and every other
    sigma with N_{g,nu-g}^sigma != 0 comes before v."""
    nu = labels[v]
    for g in gens:
        rest = index.get(nu - labels[g])
        if (rest is not None and rest <= v and N[g, rest, v] == 1
                and (np.flatnonzero(N[g, rest]) <= v).all()):
            yield g, rest


def _recursion_row(N: np.ndarray, labels, index: dict[Weight, int], F: dict, v: int) -> np.ndarray | None:
    """The right side of the generator recursion for nu = labels[v] as int64,
    N[nu-g] @ N[g] - sum_{sigma != nu} N_{g,nu-g}^sigma N[sigma], from the g
    in F (generator index -> N[g] as float64) that reaches nu (``_reaching``)
    with the fewest terms; None when no generator reaches nu.

    The product runs in float64 (numpy has no BLAS route for integers) and is
    exact under ``_exact_float_bound``; the sum runs in int64, one n x n slice
    at a time, so nothing is formed in the table's narrow dtype.  Only the
    result is a fresh array; the temporaries are ``_step_buffers``.
    """
    g, rest = min(_reaching(N, labels, index, F, v), key=lambda gr: np.count_nonzero(N[gr]),
                  default=(None, None))
    if g is None:
        return None
    terms = np.flatnonzero(N[g, rest])
    rest_f, prod, term = _step_buffers(len(N))
    np.copyto(rest_f, N[rest])
    out = np.matmul(rest_f, F[g], out=prod).astype(np.int64)
    for sigma in terms[terms != v]:
        out -= np.multiply(N[g, rest, sigma], N[sigma], out=term, dtype=np.int64)
    return out


@lru_cache(maxsize=1)
def _step_buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scratch for ``_recursion_row`` at n labels, shared by every step: two
    float64 n x n arrays and one int64.  With fresh temporaries of that size
    glibc trims and regrows its heap on every step: 350,000 page faults in
    the B(5,21) build and as many in its associativity check, against
    8,000 and 1,000 with these."""
    return np.empty((n, n)), np.empty((n, n)), np.empty((n, n), dtype=np.int64)


def _holding(coeffs: np.ndarray, top: int) -> np.ndarray:
    """coeffs, or a copy in ``_narrowest(top)`` when coeffs' own dtype cannot
    hold top."""
    if top <= np.iinfo(coeffs.dtype).max:
        return coeffs
    return coeffs.astype(_narrowest(top))


def _narrowest(top: int) -> type:
    """The narrowest of int16, int32 and int64 that holds top."""
    return next(t for t in (np.int16, np.int32, np.int64) if np.iinfo(t).max >= top)


@dataclass(frozen=True)
class FusionTable:
    """All structure constants N_{lam,mu}^{nu} over the alcove, in canonical order.

    ``coeffs`` is a narrow integer array (int16 unless a cell needs more, see
    ``build``): compare or index it, or cast it before arithmetic.
    """

    params: AlcoveParams
    labels: tuple[Weight, ...]
    coeffs: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.labels)})

    @classmethod
    def build(cls, params: AlcoveParams) -> "FusionTable":
        """Fuse the generator rows, then fill the rest by the generator recursion.

        coeffs[nu] is the transposed fusion matrix of nu; the recursion (see
        the module docstring) holds for it as written since the ring is
        commutative.  Labels are filled in order, so every term a reaching
        generator needs is filled.  The table starts in _TABLE_DTYPE; each
        row is formed in int64, and the whole table widens (``_holding``)
        before a row it cannot hold is stored.  The float64 products are
        exact while n (max N)^2 < 2**53, which the check after the loop
        confirms for every product it ran.
        """
        labels = alcove_enumerate(params)
        index = {w: i for i, w in enumerate(labels)}
        n = len(labels)
        coeffs = np.zeros((n, n, n), dtype=_TABLE_DTYPE)
        unit = index[Weight.zero(params.rank)]
        coeffs[unit] = np.eye(n, dtype=np.int64)
        F = {}
        for g in _generator_indices(params.datum, index):
            row = fuse_matrix(params, labels[g]).T
            coeffs = _holding(coeffs, row.max(initial=0))
            coeffs[g] = row
            F[g] = row.astype(np.float64)
        for v in range(n):
            if v == unit or v in F:
                continue
            out = _recursion_row(coeffs, labels, index, F, v)
            if out is None:
                raise AssertionError(f"no generator reaches nu={labels[v]}")
            if out.min() < 0:
                raise AssertionError(f"negative fusion coefficient at nu={labels[v]}")
            coeffs = _holding(coeffs, out.max())
            coeffs[v] = out
        _exact_float_bound(n, coeffs.max(initial=0))
        coeffs.setflags(write=False)
        return cls(params, labels, coeffs)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, w: Weight) -> int:
        try:
            return self._index[w]
        except KeyError:
            raise DomainError(f"{w} is not an alcove label") from None

    def coefficient(self, lam: Weight, mu: Weight, nu: Weight) -> int:
        return int(self.coeffs[self.index(lam), self.index(mu), self.index(nu)])

    def fusion_matrix(self, lam: Weight) -> np.ndarray:
        """N_lam as int64 with rows indexed by the output label: (N_lam)[nu, mu] = N_{lam,mu}^{nu}."""
        return self.coeffs[self.index(lam)].T.astype(np.int64, order="C")

    def to_json(self) -> str:
        """The table as compact JSON with sorted keys.

        N is serialized one first-axis slice at a time, so the n^3 table never
        exists as nested Python lists; the text is what json.dumps of the
        whole dict gives with separators=(",", ":") and sort_keys=True.
        """
        meta = {
            "family": self.params.datum.family,
            "rank": self.params.datum.rank,
            "ell": self.params.ell,
            "labels": [list(w.doubled) for w in self.labels],
        }
        rows = ",".join(json.dumps(s.tolist(), separators=(",", ":")) for s in self.coeffs)
        # "N" sorts before every lowercase key
        return "".join(('{"N":[', rows, "],", json.dumps(meta, separators=(",", ":"), sort_keys=True)[1:]))

    # -- ring invariants (exact) ---------------------------------------------

    def check_unit(self) -> bool:
        """N_{0,mu}^{nu} = delta_{mu,nu}."""
        unit = self.index(Weight.zero(self.params.rank))
        return bool(np.array_equal(self.coeffs[unit], np.eye(self.size, dtype=np.int64)))

    def check_total_symmetry(self) -> bool:
        """N is invariant under all permutations of its three indices.

        The transpositions (0 1) and (1 2) generate S_3, so N_{a,b,c} = N_{b,a,c}
        and N_{a,b,c} = N_{a,c,b} suffice.  Both are checked one slice a at a
        time, N[a] against N[:, a, :] and N[a].T, with n x n temporaries only.
        """
        N = self.coeffs
        return all(np.array_equal(N[a], N[:, a, :]) and np.array_equal(N[a], N[a].T)
                   for a in range(self.size))

    def check_associativity(self) -> bool:
        """(a b) c = a (b c) for all labels, certified exactly from a cyclic vector.

        With (L_a)_{c,b} = N_{a,b}^c, L_a is left multiplication by a and
        coeffs[a] = L_a^T, and the ring is associative iff L_a L_b =
        sum_c N_{a,b}^c L_c for all labels a, b.  Four parts are checked, G
        being the generators that lie in the alcove (``_generator_indices``)
        and e_c the basis vector of label c:

        1. unit and cyclic vector: L_0 = I (``check_unit``), and L_c e_0 = e_c
           for every label c, i.e. coeffs[:, 0, :] = I;
        2. the L_g, g in G, commute pairwise;
        3. reachability (``_reaching``): every label nu other than 0 and G
           has some g in G with nu - g a label before nu, N_{g,nu-g}^nu = 1,
           and every other sigma with N_{g,nu-g}^sigma != 0 before nu in
           label order;
        4. recursion: for each such nu, with the g of 3 whose row
           N_{g,nu-g}^: has the fewest terms, L_nu = L_g L_{nu-g}
           - sum_{sigma != nu} N_{g,nu-g}^sigma L_sigma, checked as coeffs[nu]
           == coeffs[nu-g] @ coeffs[g] - sum_sigma N_{g,nu-g}^sigma coeffs[sigma].

        Parts 3 and 4 are one loop over ``_recursion_row``, the step that
        ``build`` fills each label with: it is None where part 3 fails.

        Proof that they suffice: let A be the algebra generated by I and the
        L_g.  By 2, A is commutative.  By 1, L_0 = I lies in A, and by 3 and
        4 so does every L_nu, by induction in label order.  By 1, e_0 is a
        cyclic vector for A, and for a commutative A that makes P -> P e_0
        injective on A: if P e_0 = 0, then P e_c = P L_c e_0 = L_c P e_0 = 0
        for every c, so P = 0.  L_a L_b and sum_c N_{a,b}^c L_c both lie in A
        and both take e_0 to sum_c N_{a,b}^c e_c, so they are equal.

        Cost: |G|^2 float64 products of n x n matrices for part 2 and one per
        label for part 4, whose sum is formed in int64 one slice at a time:
        |G|^2 n^3 + n^4 flops, against |G| n^4 for the generator identity
        L_g L_b = sum_sigma N_{g,b}^sigma L_sigma over every b, and no
        temporary larger than n^2.  Every product is exact under
        ``_exact_float_bound`` on the table's largest |entry|.
        """
        N, n = self.coeffs, self.size
        unit = self.index(Weight.zero(self.params.rank))
        if not (self.check_unit() and np.array_equal(N[:, unit, :], np.eye(n, dtype=np.int64))):
            return False
        _exact_float_bound(n, max(int(N.max()), -int(N.min())))
        F = {g: N[g].astype(np.float64) for g in _generator_indices(self.params.datum, self._index)}
        rows = ((v, _recursion_row(N, self.labels, self._index, F, v))
                for v in range(n) if v != unit and v not in F)
        return (all(np.array_equal(f @ h, h @ f) for f, h in combinations(F.values(), 2))
                and all(out is not None and np.array_equal(N[v], out) for v, out in rows))

    def check_sector_grading(self) -> bool:
        """N_{lam,mu}^{nu} = 0 unless p(nu) = p(lam) p(mu).

        Walks the first axis, so no temporary is larger than one n x n slice.
        """
        pars = np.array([w.parity for w in self.labels])
        wrong = {p: p * pars[:, None] != pars[None, :] for p in (1, -1)}
        return not any(s[wrong[p]].any() for s, p in zip(self.coeffs, pars.tolist()))


def bratteli_endo_dim(table: FusionTable, generator: Weight, n: int) -> tuple[dict[Weight, int], int]:
    """Path counts from the unit into each label after n fusions with ``generator``.

    Returns (counts, total) with total = sum of squared counts, the dimension
    of the centralizer algebra End(generator^(x) n).
    """
    return _path_counts(table.fusion_matrix(generator), table.labels,
                        table.index(Weight.zero(table.params.rank)), n)


def _path_counts(A: np.ndarray, labels: tuple, start: int, n: int) -> tuple[dict, int]:
    """Counts of the n-step paths from labels[start] in the graph A, keyed by
    label where nonzero, and their sum of squares: the one Bratteli walk."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    vec = np.zeros(len(labels), dtype=np.int64)
    vec[start] = 1
    for _ in range(n):
        vec = A @ vec
    return {w: int(c) for w, c in zip(labels, vec) if c}, int((vec * vec).sum())
