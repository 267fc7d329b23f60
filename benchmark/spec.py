"""What the benchmark measures: workloads, metric names and units, and fixed sizes.

`record.py` writes BENCHMARK.json from these tables, and `run.py` and `job.py`
report exactly these names, so the three stay in step.
"""
from __future__ import annotations

VERIFY_CELL = (4, 15)    # (rank, ell); n = 70 labels, 7-12 s a job, so a run holds 3-5
FUSE_CELL = (4, 21)      # n = 420 labels, beyond the dense-table wall
FUSE_QUERIES = 100       # stratified: a fresh seed lands within a few % of another
GRID_MAX_ELL = 37        # cost doubles per step of ell; 41 would be 4x the time
GRID_CELLS, GRID_Z_ROWS = 56, 1278

RUN_SECONDS = 40
MIN_REPS = 2             # timed interpreters per run, even if they overrun RUN_SECONDS

# job.SpeedProbe: one sample of PROBE_LOOP rounds every PROBE_INTERVAL_S of wall
# time, 45-95 us each (under 1% of the job) on a 2.1 GHz Xeon.  norm_wall_s
# and setup_s are the job's times at a speed where a sample takes
# PROBE_NOMINAL_S, a typical figure there; it only sets the scale.
PROBE_LOOP = 40
PROBE_INTERVAL_S = 0.01
PROBE_NOMINAL_S = 60e-6

WORKLOADS = {
    "verify-b4-l15":
        "bcfusion verify at (4,15), n = 70: every layer runs; the dense fusion-table build, "
        "two-stage oracle and eigenvalue_squares take most of it",
    "fuse-queries-b4-l21":
        "100 seeded random fuse(a, b) queries at (4,21), no table or shared cache: "
        "cold Freudenthal multisets and affine reduction do the work",
    "unitarity-grid-l37":
        "bcfusion unitarity --max-ell 37 (56 cells): no fusion at all, time goes to "
        "qchar.qdim and bmwdual.gamma_set",
}

# (name, unit, better, bound)
END_TO_END = [
    ("norm_wall_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

# The 22 named checks of verify.run_suite, in the order it runs them.
VERIFY_CHECKS = (
    "unit", "total_symmetry", "associativity", "sector_grading", "spin_rule",
    "vector_rule", "simple_current", "current_multiplication", "positive_character_law",
    "positive_character_weyl_sum", "perron_frobenius_unique", "phi_character_symmetry",
    "phi_sign_table", "psi_bijection", "psi_fusion_graph", "bratteli_paths",
    "eigenvalue_squares", "generator_dim_identity", "markov_trace", "ranklevel_duality",
    "two_stage_oracle", "unitarity_audit",
)

# Traced spans and what each reports: calls, inclusive seconds (s), and self
# seconds (self_s: s minus the time its child spans cover).
SPANS = {
    "rootdata.dominant_weight_multiplicities": ("calls", "s"),
    "rootdata.weyl_orbit": ("calls", "s"),
    "fusion.alcove_enumerate": ("s",),
    "fusion.FusionTable.build": ("s", "self_s"),
    "fusion.check_unit": ("s",),
    "fusion.check_total_symmetry": ("s",),
    "fusion.check_associativity": ("s",),
    "fusion.check_sector_grading": ("s",),
    "fusion.fuse": ("calls", "s", "self_s"),
    "fusion.fuse_two_stage": ("calls", "s"),
    "qchar.qdim": ("calls", "s"),
    "qchar.chi": ("calls", "s"),
    "qchar.dim_mu_vector": ("calls", "s"),
    "qchar.positive_character": ("s",),
    "qchar.pf_certify_unique": ("s",),
    "qchar.character_law_defect": ("s",),
    "symmetry.InvolutionData.build": ("s",),
    "symmetry.verify_simple_current": ("s",),
    "bmwdual.gamma_set": ("calls", "s"),
    "bmwdual.eig_square_set_check": ("s",),
    "bmwdual.verify_psi_fusion": ("s",),
    "bmwdual.gamma_bratteli": ("s",),
    "bmwdual.ranklevel_check": ("s",),
    "bmwdual.trace_match": ("s",),
    "bmwdual.psi_table": ("s",),
    "unitarity.audit": ("calls", "s", "self_s"),
    "verify.run_suite": ("self_s",),
    "cli.main": ("self_s",),
}

# Counts gathered at the same boundaries: (name, unit, better).
COUNTS = [
    ("rootdata.dominant_weight_multiplicities.distinct", "count", "lower"),
    ("rootdata.multiset_max", "count", "lower"),
    ("fusion.labels", "count", "higher"),
    ("fusion.fuse.terms", "count", "lower"),
    ("fusion.reduce_cache.hit_ratio", "ratio", "higher"),
    ("fusion.table_bytes", "B", "lower"),
    ("bmwdual.diagrams", "count", "higher"),
    ("unitarity.z_rows", "count", "higher"),
    ("verify.checks_skipped", "count", "lower"),
]

# Per-layer names that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = tuple(
    [f"{span}.calls" for span, kinds in SPANS.items() if "calls" in kinds]
    + [name for name, unit, _ in COUNTS if unit in ("count", "B", "ratio")])


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for span, kinds in SPANS.items():
        for kind in kinds:
            out.append((f"{span}.{kind}", "count" if kind == "calls" else "s", "lower"))
    out += COUNTS
    out += [(f"verify.check.{name}.s", "s", "lower") for name in VERIFY_CHECKS]
    out.append(("trace.overhead_s", "s", "lower"))
    return out
