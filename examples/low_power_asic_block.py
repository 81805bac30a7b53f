"""Low-power domino synthesis of an ASIC control block (paper Section 1).

The paper's motivating scenario: an ASIC (chipset / cellular) control
block that needs domino speed under a tight power budget.  This script:

1. generates a control-logic-like block (wide, convergent, OR-rich);
2. runs the untimed flow (Table 1 conditions, PI probability 0.5);
3. re-runs the timed flow with transistor resizing (Table 2 conditions)
   to check the savings survive timing repair;
4. prints full power breakdowns (domino / clock / static) for both.

Run:  python examples/low_power_asic_block.py
"""

from repro.bench import GeneratorConfig, random_control_network
from repro.core import FlowConfig, Pipeline, format_table
from repro.domino import analyze_timing, simulate_mapped_power


def breakdown(run) -> None:
    """Power breakdown of both mapped designs of one pipeline run."""
    for variant in (run.flow.ma, run.flow.mp):
        design = run.context.builds[variant.label].design
        sim = simulate_mapped_power(design, n_vectors=8192)
        timing = analyze_timing(design)
        print(
            f"  {variant.label}: cells={variant.size:>5}  "
            f"domino={sim['domino']:>7.1f}  clock={sim['clock']:>6.1f}  "
            f"static={sim['static']:>6.1f}  total={sim['total']:>7.1f}  "
            f"critical delay={timing.critical_delay:.2f}"
        )


def main() -> None:
    config = GeneratorConfig(
        n_inputs=48,
        n_outputs=20,
        n_gates=320,
        seed=42,
        support_size=12,
        outputs_per_window=4,
        or_probability=0.65,
    )
    network = random_control_network("asic_ctrl", config)
    print(f"control block: {network.stats()}\n")

    flow_config = FlowConfig(n_vectors=8192, seed=0)
    untimed_run = Pipeline(flow_config).run(network)
    untimed = untimed_run.flow
    print(format_table([untimed.row()], "Untimed flow (Table 1 conditions)"))
    breakdown(untimed_run)
    print()

    timed_run = Pipeline(flow_config.replace(timed=True)).run(network)
    timed = timed_run.flow
    print(format_table([timed.row()], "Timed flow with resizing (Table 2 conditions)"))
    breakdown(timed_run)
    for variant in (timed.ma, timed.mp):
        r = variant.resize
        print(
            f"  {variant.label} resizing: {r.initial_delay:.2f} -> {r.final_delay:.2f} "
            f"(target {r.target:.2f}, {r.upsized_cells} cells upsized, "
            f"met={r.met_timing})"
        )
    print(
        f"\nsavings survive timing repair: "
        f"{untimed.power_savings_percent:.1f}% untimed vs "
        f"{timed.power_savings_percent:.1f}% timed"
    )


if __name__ == "__main__":
    main()
