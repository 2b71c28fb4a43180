"""Benchmark harness support: paper reference data + experiment runners.

Every table and figure in the paper's evaluation has a runner here that
returns structured rows; the ``benchmarks/`` pytest-benchmark targets and
the examples print them.  Paper-measured values ship alongside so each
bench can report measured-vs-paper shape checks.
"""

from repro.bench.tables import format_table
from repro.bench.chaos import chaos_rows, run_chaos
from repro.bench.fleet import fleet_rows, run_fleet_bench
from repro.bench.serving import run_serving_comparison, simulate_engine
from repro.bench.spec import run_spec_sweep, spec_rows
from repro.bench.timing import run_bench_timing, write_bench_timing
from repro.bench.viz import sparkline, sweep_summary
from repro.bench.whatif import run_whatif, sample_variants, whatif_rows
from repro.bench import paper_data
from repro.bench.experiments import (
    run_fig3_quant_strategies,
    run_fig4_breakdown,
    run_tab1_io_traffic,
    run_fig5_parallelism_sweep,
    run_tab3_overall,
    run_fig7_effective_quantization,
    run_fig8_parallelism_control,
    run_tab5_llc_misses,
    run_fig9_multigpu,
)

__all__ = [
    "format_table",
    "chaos_rows",
    "run_chaos",
    "fleet_rows",
    "run_fleet_bench",
    "run_serving_comparison",
    "simulate_engine",
    "run_spec_sweep",
    "spec_rows",
    "sample_variants",
    "run_bench_timing",
    "write_bench_timing",
    "sparkline",
    "sweep_summary",
    "run_whatif",
    "whatif_rows",
    "paper_data",
    "run_fig3_quant_strategies",
    "run_fig4_breakdown",
    "run_tab1_io_traffic",
    "run_fig5_parallelism_sweep",
    "run_tab3_overall",
    "run_fig7_effective_quantization",
    "run_fig8_parallelism_control",
    "run_tab5_llc_misses",
    "run_fig9_multigpu",
]
