"""Run the flow on your own BLIF file (drop-in MCNC benchmark usage).

The paper evaluates on MCNC circuits (apex7, frg1, x1, x3).  Those BLIF
files are not shipped here, but the front-end accepts standard BLIF, so
any real benchmark can be dropped into the identical flow.  This script
writes a small BLIF design to disk, loads it back, and synthesises it
both ways — exactly what you would do with a real benchmark file.

Run:  python examples/custom_blif_flow.py [path/to/design.blif]
"""

import sys
import tempfile
from pathlib import Path

from repro import FlowConfig, Pipeline, load_blif
from repro.core import format_table

DEMO_BLIF = """\
.model demo_alu_ctl
.inputs op0 op1 op2 flag_z flag_n enable
.outputs sel_add sel_sub sel_logic stall
.names op0 op1 t_arith
1- 1
-1 1
.names t_arith op2 sel_add
10 1
.names t_arith op2 sel_sub
11 1
.names op0 op1 op2 sel_logic
000 1
.names flag_z flag_n enable t_hazard
11- 1
--0 1
.names t_hazard t_arith stall
11 1
.end
"""


def main() -> None:
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
    else:
        path = Path(tempfile.mkdtemp()) / "demo.blif"
        path.write_text(DEMO_BLIF)
        print(f"(no BLIF given — wrote demo design to {path})\n")

    network = load_blif(str(path))
    print(f"loaded {network.name}: {network.stats()}\n")

    config = FlowConfig(input_probability=0.5, n_vectors=8192, seed=0)
    run = Pipeline(config).run(network)  # the flow record plus the mapped designs
    print(format_table([run.flow.row()], f"MA vs MP for {network.name}"))
    print()
    print("negative-phase outputs under MP:", run.flow.mp.assignment.negative_outputs())
    print("MP cell histogram:", run.context.builds["MP"].design.counts_by_cell())


if __name__ == "__main__":
    main()
