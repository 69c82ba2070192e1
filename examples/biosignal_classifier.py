#!/usr/bin/env python3
"""Biosignal classification: SVM inference duty-cycled on the node.

A wearable-monitoring scenario (the paper's second application family,
compare its references on biomedical ULP processing): feature vectors
arrive in batches from a biosignal front-end, and the node classifies
them with the fixed-point SVM.  The script compares all three SVM
kernels (linear / polynomial / RBF) under the 10 mW envelope, sweeping
the host frequency to find the most energy-efficient configuration.

Run:  python examples/biosignal_classifier.py
"""

from repro.core import HeterogeneousSystem
from repro.kernels import SvmKernel
from repro.units import format_seconds, mhz

#: One classification batch (24 windows) arrives each second.
BATCH_PERIOD = 1.0
HOST_SWEEP = (mhz(2), mhz(4), mhz(8), mhz(16))


def main() -> None:
    system = HeterogeneousSystem()

    print("SVM batch classification under the 10 mW envelope")
    print(f"(one batch of 24 feature vectors per {BATCH_PERIOD:.0f} s)")
    print()

    for variant in ("linear", "poly", "RBF"):
        kernel = SvmKernel(variant)
        print(f"svm ({variant}):")
        best = None
        for host_frequency in HOST_SWEEP:
            result = system.offload(kernel, host_frequency=host_frequency,
                                    iterations=1)
            energy = result.timing.energy.total_energy
            if best is None or energy < best[1]:
                best = (host_frequency, energy)
            print(f"  host {host_frequency / 1e6:5.1f} MHz: "
                  f"batch in {format_seconds(result.timing.total_time)}, "
                  f"{energy * 1e6:7.1f} uJ, "
                  f"speedup {result.compute_speedup:4.1f}x, "
                  f"verified={result.verified}")
        host_frequency, energy = best
        print(f"  -> best at host {host_frequency / 1e6:.0f} MHz: "
              f"{energy * 1e6:.1f} uJ/batch")
        print()


if __name__ == "__main__":
    main()
