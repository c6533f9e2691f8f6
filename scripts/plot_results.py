#!/usr/bin/env python3
"""Plot the bench CSV outputs as paper-style figures.

Usage:
    python3 scripts/plot_results.py [bench_results_dir] [output_dir]

Reads the CSV series written by `vc2m experiment --preset fig2`, `fig3`
and `fig4` (default directory ./bench_results) and writes PNGs mirroring
the paper's Figures 2-4.
Requires matplotlib; degrades to a clear error message without it.
"""

import csv
import os
import sys


FIG_SERIES = {
    "fig2a_platform_A.csv": "Figure 2(a) — Platform A (4 cores, 20 partitions)",
    "fig2b_platform_B.csv": "Figure 2(b) — Platform B (6 cores, 20 partitions)",
    "fig2c_platform_C.csv": "Figure 2(c) — Platform C (4 cores, 12 partitions)",
    "fig3a_bimodal_light.csv": "Figure 3(a) — bimodal light",
    "fig3b_bimodal_medium.csv": "Figure 3(b) — bimodal medium",
    "fig3c_bimodal_heavy.csv": "Figure 3(c) — bimodal heavy",
}

STYLES = [
    ("tab:red", "+"),      # Heuristic (flattening)
    ("tab:orange", "o"),   # Heuristic (overhead-free CSA)
    ("tab:blue", "s"),     # Heuristic (existing CSA)
    ("tab:green", "^"),    # Evenly-partition (overhead-free CSA)
    ("tab:purple", "v"),   # Baseline (existing CSA)
]


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    data = [[float(x) for x in row] for row in rows[1:]]
    return header, data


def plot_schedulability(plt, path, title, out_path):
    header, data = read_csv(path)
    xs = [row[0] for row in data]
    fig, ax = plt.subplots(figsize=(5.2, 3.4))
    for col in range(1, len(header)):
        color, marker = STYLES[(col - 1) % len(STYLES)]
        ax.plot(xs, [row[col] for row in data], label=header[col],
                color=color, marker=marker, markersize=3, linewidth=1.2)
    ax.set_xlabel("Taskset reference utilization")
    ax.set_ylabel("Fraction of schedulable tasksets")
    ax.set_ylim(-0.02, 1.05)
    ax.set_title(title, fontsize=9)
    ax.legend(fontsize=6, loc="lower left")
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig(out_path, dpi=160)
    plt.close(fig)
    print(f"wrote {out_path}")


def plot_runtime(plt, path, out_path):
    header, data = read_csv(path)
    xs = [row[0] for row in data]
    fig, ax = plt.subplots(figsize=(5.2, 3.4))
    for col in range(1, len(header)):
        color, marker = STYLES[(col - 1) % len(STYLES)]
        ax.plot(xs, [row[col] for row in data], label=header[col],
                color=color, marker=marker, markersize=3, linewidth=1.2)
    ax.set_xlabel("Taskset reference utilization")
    ax.set_ylabel("Average running time (s)")
    ax.set_yscale("log")
    ax.set_title("Figure 4 — analysis running time", fontsize=9)
    ax.legend(fontsize=6, loc="upper left")
    ax.grid(alpha=0.3, which="both")
    fig.tight_layout()
    fig.savefig(out_path, dpi=160)
    plt.close(fig)
    print(f"wrote {out_path}")


def main():
    src = sys.argv[1] if len(sys.argv) > 1 else "bench_results"
    dst = sys.argv[2] if len(sys.argv) > 2 else src
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        sys.exit("matplotlib is required: pip install matplotlib")

    os.makedirs(dst, exist_ok=True)
    plotted = 0
    for name, title in FIG_SERIES.items():
        path = os.path.join(src, name)
        if os.path.exists(path):
            plot_schedulability(plt, path, title,
                                os.path.join(dst, name.replace(".csv", ".png")))
            plotted += 1
    runtime = os.path.join(src, "fig4_running_time.csv")
    if os.path.exists(runtime):
        plot_runtime(plt, runtime, os.path.join(dst, "fig4_running_time.png"))
        plotted += 1
    if plotted == 0:
        sys.exit(f"no CSV series found in {src}/ — run the benches first")


if __name__ == "__main__":
    main()
