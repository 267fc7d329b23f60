"""Golden outputs: sha256 digests of exact CLI output, so a refactor that
changes a byte fails here.  The matrix, verify and unitarity digests at rank
2 and 3 were recorded before the qchar/symmetry/cli consolidation, the fuse
digests and the (4,15) table before fuse became one batched numpy pass, the
duality digests before the report stopped building a whole table.

Only integers, booleans and strings are hashed (the fusion tables, the verify
check names/verdicts/details, and the decisions of the unitarity audit), so
those digests do not depend on the platform's libm.  The exceptions are the
full `unitarity --max-ell 25` JSON, floats included, recorded before the
audit walked Gamma lazily and qdim paired in integers, and the full
`--max-ell 41` JSON, recorded before the audit walked Gamma as row arrays:
they pin every float of the audit to the value math.sin and numpy's sin give
for it on the platform they were recorded on (CPython 3.11 on x86-64 Linux).
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
    ("B", 4, 15): "8bb213393a335f32267dc1c3089d9ea9a8214f55c43673ade221d14dd8932a42",
}

# `bcfusion fuse --rank 4 --format json`; each ell has its largest label with itself
FUSE = {
    (15, "7/2,7/2,5/2,3/2", "7/2,7/2,5/2,3/2"):
        "67813c0aa8b99670ba12386bf7ea448ac7d9907ff8e40cbe74347267a0e3e7da",
    (15, "5/2,5/2,1/2,1/2", "1,0,0,0"):
        "9f279a022008f37c2cda79b87e62e93c54a6e22998ddae69c58c859d9fa4069c",
    (15, "7/2,7/2,5/2,5/2", "2,0,0,0"):
        "6fec10f20d90401aa7131f55e7e2fa0239ff757a7c98abb327f371050ae05af7",
    (21, "13/2,13/2,9/2,5/2", "13/2,13/2,9/2,5/2"):
        "c5fcdf6e4a71396d36ecce54bd02f63c384db093899bd47cd33f6e16fb1d820c",
    (21, "4,2,2,1", "6,3,2,2"):
        "32884d5e2b1dcabb81f14b0893a05c0333618c0ecf5875176282cb97e6c305ec",
    (21, "6,6,3,3", "11/2,11/2,7/2,5/2"):
        "0b263f0c2adb2e8e6901ddaa57e369c56136c1b3b40921ba96c36d547075254b",
}

# (2, 5) and (4, 15) have skipped checks; they were recorded before CheckResult
# flagged them, and the JSON (name, ok, detail) must not show the flag
VERIFY = {
    (2, 5): "b5c3e39914d41556ce4daadf244cb850a08719b16db3f4dc9c55a3f8e952728e",
    (2, 9): "5a75b0ed7a320e6341c3433237874b6ab5b6fb1ffbb34ebbfe3dff3aad677c4f",
    (3, 13): "301014b2893686f90f0f95a16bd12bdb6f75dd528eeda921d72065f7dbbeb3d8",
    (4, 15): "58c15868c32d7dd571d26018ec3f9ac9af4cade22839d7627db23d71227aaf3c",
}

# `bcfusion duality --format json`, recorded while the report still read V's
# fusion matrix from a whole fusion table
DUALITY = {
    (2, 9): "4242f29a580c1cd5cb44f4bd201e07bfbcca36ab2899cb7da22c451ce91dc789",
    (3, 13): "570208a7c022c356cb0aa3de102a4bb80bb6190b91861ffbb4bd16ad493c4aa9",
    (4, 17): "b1c058bc1d257dd2e13af3f423e1fbd020a7e74b74b6238650c96c3869599184",
}

# [k, ell, conclusive, [[z, strict, distinct, witness], ...]] per cell, compact JSON
UNITARITY_MAX_ELL_25 = "b6d37ce5698ace4be8ac90bd1989e4708843b7a2eafbb9aacc12f5f9dc89700c"

# the whole `unitarity --max-ell 25 --format json` text, floats included
UNITARITY_MAX_ELL_25_FULL = "753a0a62d952b9ee8ece1c6340d5162152740667881f6a96453ce33605b962f7"

# the whole `unitarity --max-ell 41 --format json` text: 72 cells, 1,790 z-rows
UNITARITY_MAX_ELL_41_FULL = "fc33cb6e2a1c6bd9841ba5712fe2fceca27c8dfee73e2f4a81105bb33414c9e4"


@pytest.mark.parametrize("family,rank,ell", sorted(MATRIX))
def test_matrix_json_golden(capsys, family, rank, ell):
    assert main(["matrix", "--family", family, "--rank", str(rank), "--ell", str(ell)]) == 0
    assert _sha(capsys.readouterr().out) == MATRIX[family, rank, ell]


@pytest.mark.parametrize("ell,lhs,rhs", sorted(FUSE))
def test_fuse_json_golden(capsys, ell, lhs, rhs):
    assert main(["fuse", "--rank", "4", "--ell", str(ell), "--lhs", lhs, "--rhs", rhs,
                 "--format", "json"]) == 0
    assert _sha(capsys.readouterr().out) == FUSE[ell, lhs, rhs]


@pytest.mark.parametrize("rank,ell", sorted(VERIFY))
def test_verify_json_golden(capsys, rank, ell):
    assert main(["verify", "--rank", str(rank), "--ell", str(ell), "--format", "json"]) == 0
    assert _sha(capsys.readouterr().out) == VERIFY[rank, ell]


@pytest.mark.parametrize("rank,ell", sorted(DUALITY))
def test_duality_json_golden(capsys, rank, ell):
    assert main(["duality", "--rank", str(rank), "--ell", str(ell), "--format", "json"]) == 0
    assert _sha(capsys.readouterr().out) == DUALITY[rank, ell]


def test_unitarity_exact_fields_golden(capsys):
    assert main(["unitarity", "--max-ell", "25", "--format", "json"]) == 0
    cells = json.loads(capsys.readouterr().out)
    exact = [[c["k"], c["ell"], c["conclusive"],
              [[r["z"], r["strict"], r["distinct"], r["witness"]] for r in c["per_z"]]]
             for c in cells]
    assert _sha(json.dumps(exact, separators=(",", ":"))) == UNITARITY_MAX_ELL_25


def test_unitarity_full_json_golden(capsys):
    assert main(["unitarity", "--max-ell", "25", "--format", "json"]) == 0
    assert _sha(capsys.readouterr().out) == UNITARITY_MAX_ELL_25_FULL


def test_unitarity_max_ell_41_full_json_golden(capsys):
    assert main(["unitarity", "--max-ell", "41", "--format", "json"]) == 0
    assert _sha(capsys.readouterr().out) == UNITARITY_MAX_ELL_41_FULL
