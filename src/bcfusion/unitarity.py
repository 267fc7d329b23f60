"""Unitarity-failure audit: the generator-character inequality |h(z)| < Dim(box)
and negative-dimension witnesses in the even diagram sector.

h(z) is the diagram-side dimension of the generating object evaluated at
q = exp(z pi i / ell); Dim(box) is the value of the unique positive character
there.  Strict inequality at every admissible z, plus an even-sector label
with negative categorical dimension, rules out any unitary structure on a
category with these fusion rules.

The witnesses are chosen by the exact integer signs of ``qchar.qdim_signs``;
floats enter only the reported witness value and h(z), Dim(box), whose
``strict`` and ``distinct`` comparisons still use ``WITNESS_TOL``.

The witness search walks Gamma's even sizes as integer rows, never as
objects: ``bmwdual.gamma_rows`` hands out row tuples one size at a time, each
size the children of the one before, and the search takes every other size.
Each block of even-size rows becomes one padded int64 array,
``bmwdual.bar_rows`` takes the bar map of the whole block in one array
operation, and one ``qdim_signs`` call decides it from the doubled weights.
The blocks double, but never past the rows whose (rows x roots x open z)
temporary fits in ``_SLICE_BYTES``, and the walk stops after the first
block that leaves no z open.  A ``FerrersDiagram`` is
built only for a chosen witness, and its label is the ``bar_rows`` row the
search already holds.  The witness values come from one ``weyl_products``
call over the distinct witness labels and the witnessed z, each z reading
its own witness's entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .bmwdual import FerrersDiagram, bar_rows, gamma_rows, row_array
from .errors import DomainError
from .fusion import AlcoveParams
from .qchar import admissible_z, qdim_signs, weyl_products
from .rootdata import Weight, make_root_datum

WITNESS_TOL = 1e-9


def h(k: int, ell: int, z: int) -> float:
    """h(z) = 1 - sin(2 k z pi / ell) / sin(z pi / ell), the box character at z."""
    if not 1 <= z <= ell - 1 or math.gcd(z, ell) != 1:
        raise DomainError(f"z={z} must lie in [1, {ell - 1}] with gcd(z, ell) = 1")
    return 1.0 - math.sin(2 * k * z * math.pi / ell) / math.sin(z * math.pi / ell)


def dim_box(k: int, ell: int) -> float:
    """Dim(box) = sin((2k+1) pi / ell) / sin(pi / ell) > 1."""
    if 2 * k + 1 >= ell:
        raise DomainError(f"need 2k+1 < ell, got (k,ell)=({k},{ell})")
    return math.sin((2 * k + 1) * math.pi / ell) / math.sin(math.pi / ell)


@dataclass(frozen=True)
class ZAudit:
    """One audited parameter: the inequality margin and a negativity witness.

    ``strict`` records |h(z)| < Dim(box).  That inequality fails at the
    boundary z = ell - 1, where h = sin(2k pi/ell)/sin(pi/ell) + 1 exceeds
    Dim(box) (the angle-addition bound sin((2k+1)x) < sin(2kx) + sin(x) runs
    the other way there); ``distinct`` records h(z) != Dim(box), which is
    what separates the generator's dimension from the positive character and
    is what the non-unitarity argument consumes.
    """

    z: int
    h: float
    dim_box: float
    strict: bool
    distinct: bool
    negative_even_witness: FerrersDiagram | None
    witness_value: float | None

    @property
    def margin(self) -> float:
        return self.dim_box - abs(self.h)


@dataclass(frozen=True)
class UnitarityReport:
    k: int
    ell: int
    conclusive: bool
    per_z: tuple[ZAudit, ...] = field(repr=False)

    @property
    def all_strict(self) -> bool:
        return all(row.strict for row in self.per_z)

    @property
    def all_distinct(self) -> bool:
        return all(row.distinct for row in self.per_z)

    @property
    def all_witnessed(self) -> bool:
        return all(row.negative_even_witness is not None for row in self.per_z)

    @property
    def strict_below_boundary(self) -> bool:
        """|h(z)| < Dim(box) for every admissible z <= ell - 2."""
        return all(row.strict for row in self.per_z if row.z <= self.ell - 2)

    @property
    def passed(self) -> bool:
        """The certification the audit exists for: characters separated at the
        generator for every z, and a negative even-sector witness everywhere."""
        return self.conclusive and self.all_distinct and self.all_witnessed

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "ell": self.ell,
            "conclusive": self.conclusive,
            "all_strict": self.all_strict,
            "all_distinct": self.all_distinct,
            "all_witnessed": self.all_witnessed,
            "per_z": [
                {
                    "z": row.z,
                    "h": row.h,
                    "dim_box": row.dim_box,
                    "margin": row.margin,
                    "strict": row.strict,
                    "distinct": row.distinct,
                    "witness": list(row.negative_even_witness.rows)
                    if row.negative_even_witness is not None else None,
                    "witness_value": row.witness_value,
                }
                for row in self.per_z
            ],
        }

    def format_table(self) -> str:
        head = f"unitarity audit k={self.k} ell={self.ell} " \
               f"({'conclusive' if self.conclusive else 'NOT conclusive: 2(2k+1) < ell fails'})"
        lines = [head, f"{'z':>4} {'h(z)':>16} {'Dim(box)':>16} {'margin':>16} {'sep':>4}  witness"]
        for row in self.per_z:
            wit = str(row.negative_even_witness) if row.negative_even_witness else "-"
            sep = "ok" if row.distinct else "!!"
            lines.append(
                f"{row.z:>4} {row.h:>16.9f} {row.dim_box:>16.9f} {row.margin:>16.9f} {sep:>4}  {wit}")
        if self.conclusive and not self.all_strict:
            lines.append("  note: at z = ell-1 the generator value exceeds Dim(box); the"
                         " characters are still separated, which is what the audit certifies")
        return "\n".join(lines)


def audit(k: int, ell: int) -> UnitarityReport:
    """Audit every admissible z at (k, ell).

    ``conclusive`` records the theorem hypothesis 2(2k+1) < ell; when it
    fails the rows are still produced but prove nothing.  A witness is an
    even-size diagram tau with qdim(Psi(tau)) < 0; the even sector avoids the
    involution twist, so the sign is meaningful on both sides of the duality.
    The witness of each z is the first even-size tau of Gamma(k, ell), in
    (size, rows) order, whose exact sign (``qdim_signs``) is -1; no tolerance
    decides it.  ``witness_value`` is the float qdim of that label at that z,
    all from one ``weyl_products`` call over the distinct witnesses and the
    witnessed z, and a value that is not negative is an internal error.
    """
    conclusive = 2 * (2 * k + 1) < ell
    alcove = AlcoveParams(make_root_datum("B", k), ell)
    zs = admissible_z(ell)
    witnesses = _first_negative_even(k, alcove, zs)
    # one product per (distinct witness, witnessed z); each z reads its witness's entry
    distinct = list(dict.fromkeys(label for _, label in witnesses.values()))
    products = weyl_products(alcove, distinct, list(witnesses)).tolist()
    witnessed = {z: (tau, products[distinct.index(label)][j])
                 for j, (z, (tau, label)) in enumerate(witnesses.items())}
    box = dim_box(k, ell)
    rows = []
    for z in zs:
        hz = h(k, ell, z)
        witness, value = witnessed.get(z, (None, None))
        if witness is not None and not value < 0:
            raise AssertionError(f"exact sign -1 but qdim = {value} at {witness}, z={z}")
        rows.append(ZAudit(z, hz, box,
                           strict=abs(hz) < box - WITNESS_TOL,
                           distinct=abs(hz - box) > WITNESS_TOL,
                           negative_even_witness=witness, witness_value=value))
    return UnitarityReport(k, ell, conclusive, tuple(rows))


# even-size diagrams in the first walked block; each later block doubles the walk
_FIRST_BLOCK = 8
# cap on a block: budget of qdim_signs' (rows x roots x open z) temporary,
# counted at 8 bytes an entry
_SLICE_BYTES = 1 << 20


def _first_negative_even(k: int, alcove: AlcoveParams,
                         zs: tuple[int, ...]) -> dict[int, tuple[FerrersDiagram, Weight]]:
    """The first even-size tau of Gamma with sign(qdim(bar(tau))) = -1, per z,
    with its doubled label bar(tau).

    Gamma's even sizes are every other list of ``gamma_rows``, which grows
    each size from the one before, so the odd sizes are walked too but never
    decided.  They are taken lazily in blocks of 8, 8, 16, 32, ... diagrams,
    each capped at the rows whose temporary stays within ``_SLICE_BYTES`` for
    the z still without a witness (at least one row).  Each block becomes one
    padded (m, 2k+1) int64 row array and ``bar_rows`` its (m, k) doubled
    weights, and one ``qdim_signs`` call decides it for every open z.  The
    walk stops after the first block that leaves no z open, or when Gamma
    ends.  A ``FerrersDiagram`` is built only for a witness, its label read
    off the ``bar_rows`` row that decided it, and a z with no witness is left
    out of the result.
    """
    even_sector = chain.from_iterable(islice(gamma_rows(k, alcove.ell), 0, None, 2))
    per_row = 8 * len(alcove.datum.positive_roots)
    found: dict[int, tuple[FerrersDiagram, Weight]] = {}
    open_z, walked = list(zs), 0
    while open_z:
        cap = max(1, _SLICE_BYTES // (per_row * len(open_z)))
        block = list(islice(even_sector, min(max(_FIRST_BLOCK, walked), cap)))
        if not block:
            break
        walked += len(block)
        labels = bar_rows(k, row_array(block, 2 * k + 1))
        negative = qdim_signs(alcove, labels, open_z) == -1
        for z, hit, i in zip(open_z, negative.any(axis=0), negative.argmax(axis=0)):
            if hit:
                found[z] = (FerrersDiagram(block[i]), Weight(tuple(labels[i].tolist())))
        open_z = [z for z in open_z if z not in found]
    return found


def audit_grid(max_ell: int = 25) -> list[UnitarityReport]:
    """Audit every (k >= 2, ell) with ell odd <= max_ell and 2(2k+1) < ell."""
    out = []
    for ell in range(5, max_ell + 1, 2):
        k = 2
        while 2 * (2 * k + 1) < ell:
            out.append(audit(k, ell))
            k += 1
    return out
