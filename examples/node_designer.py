#!/usr/bin/env python3
"""IoT node designer: end-to-end system design with the library.

Walks through designing a sub-10 mW sensing node the way Section V of
the paper reasons: choose the kernel working set, plan which binaries
stay resident in the accelerator's L2, and inspect where the time and
energy actually go.

Run:  python examples/node_designer.py
"""

from repro.core import HeterogeneousSystem
from repro.core.library import LibraryPlanner, render_plan
from repro.kernels import CnnKernel, HogKernel, SvmKernel
from repro.obs import Telemetry, render_span_timeline, use_telemetry
from repro.units import mhz

HOST_FREQUENCY = mhz(8)


def main() -> None:
    system = HeterogeneousSystem()
    detector = HogKernel()
    classifier = CnnKernel()
    activity_monitor = SvmKernel("RBF")

    print("=== 1. workload: a smart sensing node ===")
    print("  hog       25 frames/s   (person detection features)")
    print("  cnn       25 frames/s   (classification)")
    print("  svm (RBF)  2 batches/s  (activity monitoring)")
    print()

    print("=== 2. which binaries stay resident in L2? ===")
    planner = LibraryPlanner(system.soc.l2)
    entries = planner.entries_for([
        (detector, 25.0), (classifier, 25.0), (activity_monitor, 2.0)])
    plan = planner.plan(entries)
    print(render_plan(plan,
                      spi_clock=system.host.spi_clock(HOST_FREQUENCY)))
    print()

    print("=== 3. where does the energy go? (cnn, 16 frames) ===")
    result = system.offload(classifier, host_frequency=HOST_FREQUENCY,
                            iterations=16, double_buffered=True)
    energy = result.timing.energy
    print(f"  total {energy.total_energy * 1e6:.1f} uJ")
    for label, joules in energy.energy_by_label().items():
        print(f"  {label:12s} {joules * 1e6:9.2f} uJ "
              f"({joules / energy.total_energy:6.1%})")
    print()

    print("=== 4. what does one offload look like on the wire? ===")
    hub = Telemetry(enabled=True)
    with use_telemetry(hub):
        system.offload(SvmKernel("RBF"), host_frequency=HOST_FREQUENCY,
                       iterations=2)
    print(render_span_timeline(hub, domain="wall"))


if __name__ == "__main__":
    main()
