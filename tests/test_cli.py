import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bcfusion import bmwdual, cli
from bcfusion.cli import main, parse_cell, parse_weight, run_checked
from bcfusion.errors import CertificationError, SingularParameterError, WeightParseError
from bcfusion.fusion import AlcoveParams, FusionTable, alcove_enumerate, fuse_pairs
from bcfusion.rootdata import make_root_datum
from bcfusion.verify import sampled_pairs


def test_parse_weight():
    assert parse_weight("3/2,1/2").doubled == (3, 1)
    assert parse_weight("1,0").doubled == (2, 0)
    assert parse_weight("-1,2").doubled == (-2, 4)


def test_parse_weight_errors():
    with pytest.raises(WeightParseError):
        parse_weight("1,1/2")  # mixed parity
    with pytest.raises(WeightParseError):
        parse_weight("1/3,1/3")
    with pytest.raises(WeightParseError):
        parse_weight("a,b")
    with pytest.raises(WeightParseError):
        parse_weight("")


def test_format_roundtrip_on_alcove(params29):
    for lab in alcove_enumerate(params29):
        assert parse_weight(str(lab)) == lab


def test_cli_alcove(capsys):
    assert main(["alcove", "--rank", "2", "--ell", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["labels"]) == 12
    assert main(["alcove", "--rank", "2", "--ell", "9", "--format", "table"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12 and "5/2,5/2" in lines


def test_cli_fuse(capsys):
    assert main(["fuse", "--rank", "2", "--ell", "9", "--lhs", "1,0", "--rhs", "1,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"0,0": 1, "1,1": 1, "2,0": 1}


def test_cli_fuse_rejects_outside_alcove(capsys):
    assert main(["fuse", "--rank", "2", "--ell", "9", "--lhs", "4,0", "--rhs", "1,0"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_matrix(capsys):
    assert main(["matrix", "--rank", "2", "--ell", "9", "--lhs", "0,0",
                 "--format", "table"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 12  # identity matrix rows


def test_cli_matrix_lhs_is_the_table_row(table313, capsys):
    """--lhs fuses one column per label; it must print the table's fusion matrix."""
    for lam in table313.labels:
        assert main(["matrix", "--rank", "3", "--ell", "13", "--lhs", str(lam)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["N"] == table313.fusion_matrix(lam).tolist()
        assert payload["labels"] == [list(w.doubled) for w in table313.labels]
    for bad in ("9,0,0", "1,0"):
        assert main(["matrix", "--rank", "3", "--ell", "13", "--lhs", bad]) == 2
        assert "error" in capsys.readouterr().err


def test_cli_matrix_without_lhs_is_capped(monkeypatch, capsys):
    """Above the n^3 cap the whole table is a usage error, found before any build."""
    def no_build(*args):
        raise AssertionError("the table was built")

    monkeypatch.setattr(FusionTable, "build", no_build)
    monkeypatch.setattr(cli, "MATRIX_TABLE_CAP", 12 ** 3 - 1)  # B(2,9) has n = 12
    assert main(["matrix", "--rank", "2", "--ell", "9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--lhs" in err and "1728" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MATRIX_TABLE_CAP", 12 ** 3)
    assert main(["matrix", "--rank", "2", "--ell", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["labels"][0] == [0, 0]


def test_cli_full_table_is_byte_stable(capsys):
    assert main(["matrix", "--rank", "2", "--ell", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["matrix", "--rank", "2", "--ell", "9"]) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert set(payload) == {"family", "rank", "ell", "labels", "N"}
    assert len(payload["N"]) == 12


def test_cli_chars(capsys):
    assert main(["chars", "--rank", "2", "--ell", "9", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("label,Dim,")
    assert len(lines) == 13
    assert main(["chars", "--rank", "2", "--ell", "9", "--z", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z"] == 2 and len(payload["Dim"]) == 12


@pytest.mark.parametrize("fmt,delimiter", [("csv", ","), ("table", "\t")])
def test_cli_chars_parses_back(capsys, fmt, delimiter):
    assert main(["chars", "--rank", "2", "--ell", "9", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert "\r" not in out
    rows = list(csv.reader(io.StringIO(out), delimiter=delimiter))
    assert rows[0] == ["label", "Dim", "dim_spin@z=1"]
    assert [parse_weight(r[0]) for r in rows[1:]] == list(alcove_enumerate(
        AlcoveParams(make_root_datum("B", 2), 9)))
    assert all(len(r) == 3 for r in rows)


def test_cli_fuse_csv_parses_back(capsys):
    assert main(["fuse", "--rank", "2", "--ell", "9", "--lhs", "1,0", "--rhs", "1,0",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "\r" not in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["nu", "coefficient"], ["0,0", "1"], ["1,1", "1"], ["2,0", "1"]]


def test_cli_chars_bad_z():
    with pytest.raises(SystemExit) as err:
        main(["chars", "--rank", "2", "--ell", "9", "--z", "3"])
    assert err.value.code == 2


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["fuse", "--rank", "2", "--ell", "9"])  # missing --lhs/--rhs
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [["verify", "--rank", "2"], ["verify", "--ell", "9"],
                                  ["unitarity", "--rank", "2"], ["unitarity", "--ell", "11"]])
def test_cli_rank_and_ell_go_together(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--rank and --ell must be given together" in capsys.readouterr().err


def test_cli_duality_is_type_b_only(capsys):
    with pytest.raises(SystemExit) as err:
        main(["duality", "--family", "C", "--rank", "2", "--ell", "9"])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["unitarity", "--max-ell", "3"], "selects no conclusive cell"),
    (["unitarity", "--max-ell", "9", "--format", "json"], "selects no conclusive cell"),
    (["unitarity", "--rank", "2", "--ell", "11", "--max-ell", "99"], "cannot be combined"),
    (["chars", "--family", "C", "--rank", "2", "--ell", "9"], "invalid choice"),
    (["unitarity", "--format", "csv"], "invalid choice"),
    *[([cmd, "--rank", "2", "--ell", "9", "--format", "csv"], "invalid choice")
      for cmd in ("alcove", "matrix", "verify", "duality")],
    (["unitarity", "--max-ell", "10"], "selects no conclusive cell"),
])
def test_cli_rejects_input_it_would_ignore(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_unitarity_smallest_grid(capsys):
    assert main(["unitarity", "--max-ell", "11", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(c["k"], c["ell"], c["conclusive"]) for c in payload] == [(2, 11, True)]


@pytest.mark.parametrize("exc", [AssertionError, SingularParameterError, CertificationError])
def test_cli_internal_error_exit_3(exc, monkeypatch, capsys):
    def broken(cls, params):
        raise exc("broken invariant")

    monkeypatch.setattr(FusionTable, "build", classmethod(broken))
    assert main(["matrix", "--rank", "2", "--ell", "9"]) == 3
    assert main(["verify", "--rank", "2", "--ell", "9"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"internal error: {exc.__name__}: broken invariant"] * 2


def test_cli_verify_fails_an_uncertified_spin_matrix(monkeypatch, capsys):
    """A table whose spin slice is the identity has no irreducibility
    certificate: verify reports perron_frobenius_unique as FAIL, runs the
    other checks and exits 1, not 3."""
    build = FusionTable.build.__func__

    def identity_spin(cls, params):
        table = build(cls, params)
        coeffs = table.coeffs.copy()
        coeffs[table.index(params.datum.spin_weight)] = np.eye(table.size, dtype=coeffs.dtype)
        return cls(params, table.labels, coeffs)

    monkeypatch.setattr(FusionTable, "build", classmethod(identity_spin))
    assert main(["verify", "--rank", "2", "--ell", "9"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert "  [FAIL] perron_frobenius_unique  (no odd s <= 24 with N^s + N^(s+1) positive)" in lines
    assert "  [FAIL] spin_rule" in lines
    # every check after the certificate still ran
    assert len(lines) == 23 and lines[-1].startswith("  [SKIP] unitarity_audit")


def test_cli_verify_fails_a_psi_that_is_not_a_bijection(monkeypatch, capsys):
    """Without phi the odd sizes land on labels the even sizes already take:
    verify reports psi_bijection as FAIL, skips the two graph checks that
    compare under Psi, runs the other checks and exits 1, not 3."""
    bmwdual._gamma.cache_clear()
    bmwdual.box_graph.cache_clear()
    monkeypatch.setattr(bmwdual, "phi_rows", lambda k, ell, rows: rows)
    try:
        assert main(["verify", "--rank", "2", "--ell", "9"]) == 1
    finally:
        bmwdual._gamma.cache_clear()
        bmwdual.box_graph.cache_clear()
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    failed = "  [FAIL] psi_bijection  (Psi is not a bijection onto C_ell at (k,ell)=(2,9))"
    assert [line for line in lines if "FAIL" in line] == [failed]
    for name in ("psi_fusion_graph", "bratteli_paths"):
        assert f"  [SKIP] {name}  (skipped: Psi is not a bijection)" in lines
    assert len(lines) == 23 and lines[-1].startswith("  [SKIP] unitarity_audit")


@pytest.mark.parametrize("exc", [MemoryError, RecursionError])
def test_cli_unexpected_error_exit_3(exc, monkeypatch, capsys):
    def broken(k, ell, seed=0):
        raise exc("out of resources")

    monkeypatch.setattr(cli, "run_suite", broken)
    assert main(["verify", "--rank", "2", "--ell", "9"]) == 3
    assert capsys.readouterr().err.splitlines() == [f"internal error: {exc.__name__}: out of resources"]


def test_cli_keyboard_interrupt_propagates(monkeypatch):
    def interrupted(k, ell, seed=0):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_suite", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--rank", "2", "--ell", "9"])


def test_cli_verify_single_cell(capsys):
    assert main(["verify", "--rank", "2", "--ell", "9"]) == 0
    out = capsys.readouterr().out
    assert "checks pass" in out and "FAIL" not in out


def test_cli_verify_json(capsys):
    assert main(["verify", "--rank", "2", "--ell", "9", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rank"] == 2 and all(c["ok"] for c in payload[0]["checks"])


def test_default_verify_grid():
    from bcfusion.verify import DEFAULT_GRID

    assert DEFAULT_GRID == ((2, 9), (2, 11), (2, 13), (3, 13), (3, 15), (4, 17))


def test_cli_unitarity_nonconclusive_cell_exits_zero(capsys):
    assert main(["unitarity", "--rank", "2", "--ell", "9"]) == 0
    assert "NOT conclusive" in capsys.readouterr().out


def test_cli_duality(capsys):
    assert main(["duality", "--rank", "2", "--ell", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["homeq_ok"] and payload["gamma_size"] == 12


def test_cli_verify_at_dual_rank_11(capsys):
    # C_11 at ell = 27, where the labels' (2 ell)^11 grid no longer fits in int64
    assert main(["verify", "--rank", "2", "--ell", "27"]) == 0
    assert capsys.readouterr().out.startswith("verify B_2 at ell=27: 22/22 checks pass\n")


@pytest.mark.parametrize("ell,rank_c", [(27, 11), (33, 14)])
def test_cli_duality_past_the_int64_grid(capsys, ell, rank_c):
    assert main(["duality", "--rank", "2", "--ell", str(ell), "--format", "json"]) == 0
    ranklevel = json.loads(capsys.readouterr().out)["ranklevel"]
    assert ranklevel["rank_c"] == rank_c and ranklevel["graph_isomorphic"]


def test_cli_unitarity(capsys, tmp_path):
    out = tmp_path / "audit.json"
    assert main(["unitarity", "--rank", "2", "--ell", "11", "--format", "json",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload[0]["k"] == 2 and payload[0]["all_witnessed"]
    assert main(["unitarity", "--rank", "2", "--ell", "11"]) == 0
    assert "witness" in capsys.readouterr().out


def test_cli_output_file(tmp_path, capsys):
    path = tmp_path / "alcove.json"
    assert main(["alcove", "--rank", "2", "--ell", "9", "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert len(json.loads(path.read_text())["labels"]) == 12


def test_cli_unwritable_output_is_a_usage_error(tmp_path, capsys):
    fuse_args = ["fuse", "--rank", "2", "--ell", "9", "--lhs", "1,0", "--rhs", "1,0"]
    for path, reason in ((tmp_path / "missing" / "x", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        assert main([*fuse_args, "--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write --output {path}: {reason}\n"
    assert not (tmp_path / "missing").exists()


def test_cli_output_is_checked_before_the_command_runs(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("verify ran before --output was checked")

    monkeypatch.setattr(cli, "run_suite", refuse)
    path = tmp_path / "missing" / "x"
    assert main(["verify", "--rank", "3", "--ell", "13", "--output", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write --output {path}: No such file or directory\n"
    # a writable path is neither created nor truncated by the check
    existing = tmp_path / "kept"
    existing.write_text("old\n")
    assert main(["verify", "--rank", "3", "--ell", "13", "--output", str(existing)]) == 3
    assert existing.read_text() == "old\n"
    assert main(["verify", "--rank", "3", "--ell", "13", "--output", str(tmp_path / "new")]) == 3
    assert not (tmp_path / "new").exists()


ROOT = Path(__file__).resolve().parent.parent


def _child_env():
    """The environment for a child interpreter that imports this checkout's bcfusion."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_cell():
    assert parse_cell("2,9") == (2, 9)
    for bad in ("2,9,1", "2", "two,9", ""):
        with pytest.raises(ValueError, match="malformed cell"):
            parse_cell(bad)


@pytest.mark.parametrize("script,cell", [("run_verify_grid", "2,8"), ("run_verify_grid", "2,9,1"),
                                         ("time_fuse_pairs", "2,8"), ("time_fuse_pairs", "2,9,1")])
def test_script_rejects_a_bad_cell_with_exit_2(script, cell):
    """A malformed or inadmissible cell is a usage error, not a failed verification."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{script}.py"), cell],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("script,target", [("run_verify_grid", "run_suite")])
def test_script_internal_error_exits_3(monkeypatch, capsys, script, target):
    module = _script(script)

    def broken(*args):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(module, target, broken)
    assert run_checked(module.main, ["2,9"]) == 3
    assert capsys.readouterr().err == "internal error: AssertionError: broken invariant\n"


def test_grid_script_counts_skipped_checks_apart(capsys):
    """A skipped check is neither a pass nor a failure in the summary line."""
    assert _script("run_verify_grid").main(["2,5"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == "grid done: 1 cells, 0 failing checks, 9 skipped"


def test_timing_script_prints_the_fuse_pairs_digest():
    """time_fuse_pairs prints one line a cell, ending in the sha256 of
    fuse_pairs' int64 array on the pairs verify samples with that seed."""
    script = str(ROOT / "scripts" / "time_fuse_pairs.py")
    proc = subprocess.run([sys.executable, script, "--seed", "1", "2,9", "3,11"],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    for line, (k, ell) in zip(lines, [(2, 9), (3, 11)]):
        params = AlcoveParams(make_root_datum("B", k), ell)
        pairs = sampled_pairs(alcove_enumerate(params), 1)
        digest = hashlib.sha256(fuse_pairs(params, pairs).astype("<i8").tobytes()).hexdigest()
        assert line.startswith(f"B({k},{ell}) {len(pairs)} pairs: ")
        assert line.endswith(f" minor faults, sha256 {digest}")


MAIN = "import sys; from bcfusion import cli; sys.exit(cli.main(sys.argv[1:]))"


def _into_closed_pipe(code, argv, stderr):
    """Run ``python -c code argv`` with its stdout a pipe whose reader closes it
    before the child writes; with stderr=subprocess.STDOUT stderr goes into the
    same closed pipe.  Returns the exit code and what stderr carried, if read."""
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=_child_env(),
                            stdout=subprocess.PIPE, stderr=stderr)
    proc.stdout.close()
    err = proc.stderr.read() if proc.stderr else None
    return proc.wait(timeout=120), err


def test_cli_closed_stdout_ends_the_output():
    """A reader that closes stdout is not an internal error: verify still exits 0."""
    status, err = _into_closed_pipe(MAIN, ["verify", "--rank", "2", "--ell", "9"], subprocess.PIPE)
    assert (status, err) == (0, b"")


def test_grid_script_closed_stdout_ends_the_output():
    """The grid script prints as the CLI does: a closed stdout ends its output
    and the exit code stays the grid's own."""
    script = str(ROOT / "scripts" / "run_verify_grid.py")
    code = f"import runpy; runpy.run_path({script!r}, run_name='__main__')"
    status, err = _into_closed_pipe(code, ["2,9"], subprocess.PIPE)
    assert (status, err) == (0, b"")


@pytest.mark.parametrize("code,ell,status", [
    (MAIN, "9", 0),
    (MAIN, "8", 2),
    ("import sys; from bcfusion import cli; cli.run_suite = None; sys.exit(cli.main(sys.argv[1:]))",
     "9", 3),
], ids=["pass", "usage-error", "internal-error"])
def test_cli_closed_stderr_never_gives_exit_1(code, ell, status):
    """With stderr in the same closed pipe, a message that cannot be written is
    dropped and the exit code stays the command's own, never 1."""
    assert _into_closed_pipe(code, ["verify", "--rank", "2", "--ell", ell],
                             subprocess.STDOUT)[0] == status
