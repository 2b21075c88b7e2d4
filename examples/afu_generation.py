#!/usr/bin/env python
"""AFU generation: from C-level kernel to Verilog custom instructions.

Selects instruction-set extensions for the GSM lattice filter, rewrites
the program so each becomes one fused custom instruction, validates each
fused datapath functionally against random stimulus, writes its
synthesisable Verilog to ``examples/out/``, and finally *executes* the
selection to report the measured end-to-end speedup.

Run:  python examples/afu_generation.py
"""

import random
from pathlib import Path

from repro import (
    Constraints,
    measure_selection,
    prepare_application,
    select_iterative,
)
from repro.exec import emit_verilog, rewrite_module

OUT_DIR = Path(__file__).parent / "out"


def main() -> None:
    app = prepare_application("gsm", n=128)
    constraints = Constraints(nin=4, nout=2, ninstr=4)
    result = select_iterative(app.dfgs, constraints)
    print(result.describe())
    print()

    OUT_DIR.mkdir(exist_ok=True)
    rng = random.Random(0)
    afus = rewrite_module(app.module, result.cuts).afus
    for afu in afus:
        print(afu.describe())

        # Smoke-test the functional model on random port stimulus.
        for _ in range(100):
            inputs = [rng.randint(-(2 ** 31), 2 ** 31 - 1)
                      for _ in afu.input_ports]
            outputs = afu.evaluate(inputs)
            assert len(outputs) == len(afu.output_wires)

        path = OUT_DIR / f"gsm_{afu.name}.v"
        path.write_text(emit_verilog(afu))
        print(f"  wrote {path}")
    print()
    print(f"total datapath area: "
          f"{sum(afu.area_mac for afu in afus):.2f} MAC-equivalents")

    # Close the loop: run the program with the AFUs fused in and report
    # the measured (not just estimated) speedup.
    measured = measure_selection(app, result, n=128)
    assert measured.identical, "rewritten program must be bit-identical"
    print(f"measured speedup: {measured.baseline_cycles:.0f} -> "
          f"{measured.ise_cycles:.0f} cycles = {measured.speedup:.3f}x "
          f"(estimated {result.speedup:.3f}x, bit-exact outputs)")


if __name__ == "__main__":
    main()
