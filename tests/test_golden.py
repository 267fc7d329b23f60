"""Golden outputs: sha256 digests of exact CLI output, recorded before the
qchar/symmetry/cli consolidation, so a refactor that changes a byte fails here.

Only integers, booleans and strings are hashed (the fusion tables, the verify
check names/verdicts/details, and the decisions of the unitarity audit), so
the digests do not depend on the platform's libm.
"""
import hashlib
import json

import pytest

from bcfusion.cli import main


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


MATRIX = {
    ("B", 2, 9): "4dc10eeed93a3b9660122f5abad03a9238eb9faf4f6279e1c90abd9d9fec8b8d",
    ("B", 3, 13): "8d4106e64cf7bfcd4b2512954e9eaf9002a75a32918fa9cf96ff2116708bb489",
    ("C", 3, 11): "bbbf28faaf9ace998bc041650d85849b3b4dfe7e2dc23d1cc679c2065be817b0",
}

VERIFY = {
    (2, 9): "5a75b0ed7a320e6341c3433237874b6ab5b6fb1ffbb34ebbfe3dff3aad677c4f",
    (3, 13): "301014b2893686f90f0f95a16bd12bdb6f75dd528eeda921d72065f7dbbeb3d8",
}

# [k, ell, conclusive, [[z, strict, distinct, witness], ...]] per cell, compact JSON
UNITARITY_MAX_ELL_25 = "b6d37ce5698ace4be8ac90bd1989e4708843b7a2eafbb9aacc12f5f9dc89700c"


@pytest.mark.parametrize("family,rank,ell", sorted(MATRIX))
def test_matrix_json_golden(capsys, family, rank, ell):
    assert main(["matrix", "--family", family, "--rank", str(rank), "--ell", str(ell)]) == 0
    assert _sha(capsys.readouterr().out) == MATRIX[family, rank, ell]


@pytest.mark.parametrize("rank,ell", sorted(VERIFY))
def test_verify_json_golden(capsys, rank, ell):
    assert main(["verify", "--rank", str(rank), "--ell", str(ell), "--format", "json"]) == 0
    assert _sha(capsys.readouterr().out) == VERIFY[rank, ell]


def test_unitarity_exact_fields_golden(capsys):
    assert main(["unitarity", "--max-ell", "25", "--format", "json"]) == 0
    cells = json.loads(capsys.readouterr().out)
    exact = [[c["k"], c["ell"], c["conclusive"],
              [[r["z"], r["strict"], r["distinct"], r["witness"]] for r in c["per_z"]]]
             for c in cells]
    assert _sha(json.dumps(exact, separators=(",", ":"))) == UNITARITY_MAX_ELL_25
