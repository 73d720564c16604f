#!/usr/bin/env bash
# Regenerate every paper table/figure and ablation into results/.
#
# The paper figures (6-18) come from one smartref_sweep run over the
# "figures" grid: each config's 32-benchmark suite is simulated once
# and every figure is derived from it, fanned out over all cores.
# --seed-mode fixed runs every job at the base seed, which is what
# EXPERIMENTS.md was generated with.
#
# Usage: scripts/run_all_figures.sh [build-dir] [results-dir] [jobs]
set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-results}"
JOBS="${3:-$(nproc)}"

# Start from a clean slate so a failed run can never leave a stale CSV
# masquerading as fresh output.
rm -rf "$OUT"
mkdir -p "$OUT"

run() {
    # Every bench binary tolerates --csv (table printers ignore their
    # argv); a non-zero exit is a real failure and aborts the script --
    # no silent fallback that masks crashed binaries.
    local name="$1"
    echo "=== $name ==="
    "$BUILD/bench/$name" --csv "$OUT/$name.csv" 2>"$OUT/$name.log"
}

{
    echo "=== paper figures (smartref_sweep --grid figures) ==="
    "$BUILD/tools/smartref_sweep" --grid figures --seed-mode fixed \
        -j "$JOBS" --figures --out-dir "$OUT" \
        --timing "$OUT/figures_timing.json" \
        2>"$OUT/figures_sweep.log"

    for b in table1_configs table3_bus_energy \
             ablation_counter_bits ablation_idle_disable \
             ablation_queue_stress ablation_page_policy \
             ablation_thermal ablation_retention_aware \
             ablation_cpu_timing; do
        run "$b"
    done
} | tee "$OUT/all_figures.txt"

echo "done; outputs in $OUT/"
