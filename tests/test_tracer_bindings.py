"""The benchmark's span recorder still finds every bcfusion name it binds.

benchmark/tracer.py patches public functions by name (qchar.dim_mu_vector,
FusionTable.build, verify.CheckResult, ...); renaming or deleting one breaks
`benchmark/run.py --trace 1`.  This runs the recorder around one small
verify suite and reads the benchmark's own files without changing them.
"""
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def test_tracer_reports_every_per_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmark/ untouched
    import spec
    import tracer

    from bcfusion import verify

    recorder = tracer.Recorder()
    recorder.install()
    try:
        results = verify.run_suite(2, 9)
    finally:
        recorder.uninstall()
    assert all(r.ok for r in results)
    per_layer = recorder.per_layer()
    # job.py adds verify.checks_skipped from the check results
    expected = {name for name, _, _ in spec.per_layer()} - {"verify.checks_skipped"}
    assert expected <= set(per_layer)
    assert per_layer["fusion.FusionTable.build.s"] > 0
    assert per_layer["qchar.dim_mu_vector.calls"] > 0
