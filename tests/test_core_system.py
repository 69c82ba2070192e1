"""End-to-end tests of the HeterogeneousSystem facade."""

import numpy as np
import pytest

from repro.errors import OffloadError
from repro.core.system import HeterogeneousSystem
from repro.kernels import all_kernels, kernel_by_name
from repro.kernels.matmul import MatmulKernel
from repro.link.spi import SpiLink, SpiMode
from repro.units import mhz


class TestHostBaseline:
    def test_run_on_host(self, system):
        run = system.run_on_host(MatmulKernel("char"))
        assert run.frequency == mhz(32)
        assert run.time > 0
        assert run.energy == pytest.approx(run.time * run.power)

    def test_host_time_scales_with_frequency(self, system):
        kernel = MatmulKernel("char")
        slow = system.run_on_host(kernel, mhz(16))
        fast = system.run_on_host(kernel, mhz(32))
        assert slow.time == pytest.approx(2 * fast.time)


class TestOffload:
    @pytest.mark.parametrize("name", [k.name for k in all_kernels()])
    def test_every_kernel_offloads_and_verifies(self, name):
        system = HeterogeneousSystem()
        result = system.offload(kernel_by_name(name), host_frequency=mhz(8))
        assert result.verified, name
        assert result.compute_speedup > 10, name

    def test_outputs_match_direct_compute(self, system):
        kernel = MatmulKernel("char")
        result = system.offload(kernel, seed=9)
        direct = kernel.compute(kernel.generate_inputs(9))
        assert np.array_equal(result.outputs["c"], direct["c"])

    def test_report_is_readable(self, system):
        result = system.offload(MatmulKernel("char"))
        text = result.report()
        assert "speedup" in text
        assert "verified: True" in text

    def test_binary_cached_across_offloads(self, system):
        kernel = MatmulKernel("char")
        first = system.offload(kernel)
        second = system.offload(kernel)
        assert first.timing.binary_time > 0
        assert second.timing.binary_time == 0

    def test_binary_reloaded_after_kernel_switch(self, system):
        system.offload(MatmulKernel("char"))
        system.offload(MatmulKernel("short"))
        third = system.offload(MatmulKernel("char"))
        assert third.timing.binary_time > 0

    def test_round_trip_ships_binary_only_when_not_resident(self, system):
        kernel = MatmulKernel("char")
        first = system.round_trip(kernel)
        second = system.round_trip(kernel)
        assert first.verified and second.verified
        assert first.include_binary and first.binary_bytes > 0
        assert not second.include_binary and second.binary_bytes == 0
        assert second.input_bytes == first.input_bytes > 0

    def test_no_budget_at_32mhz(self, system):
        with pytest.raises(OffloadError, match="no accelerator power budget"):
            system.offload(MatmulKernel("char"), host_frequency=mhz(32))

    def test_double_buffered_faster_at_many_iterations(self, system):
        kernel = MatmulKernel("char")
        serial = system.offload(kernel, iterations=64)
        overlapped = HeterogeneousSystem().offload(
            kernel, iterations=64, double_buffered=True)
        assert overlapped.timing.total_time < serial.timing.total_time

    def test_effective_speedup_below_compute_speedup(self, system):
        result = system.offload(MatmulKernel("char"), iterations=1)
        assert result.effective_speedup < result.compute_speedup

    def test_envelope_within_budget(self, system):
        result = system.offload(MatmulKernel("char"), host_frequency=mhz(8))
        assert result.envelope.total_power <= 10e-3 * (1 + 1e-6)

    def test_single_spi_slower_than_quad(self):
        quad = HeterogeneousSystem(link=SpiLink(SpiMode.QUAD))
        single = HeterogeneousSystem(link=SpiLink(SpiMode.SINGLE))
        kernel = MatmulKernel("char")
        quad_result = quad.offload(kernel)
        single_result = single.offload(kernel)
        assert single_result.timing.input_time > \
            2 * quad_result.timing.input_time

    def test_custom_budget_system(self):
        generous = HeterogeneousSystem(budget=50e-3)
        result = generous.offload(MatmulKernel("char"),
                                  host_frequency=mhz(32))
        assert result.verified

    def test_fewer_threads_slower(self):
        quad = HeterogeneousSystem(threads=4)
        dual = HeterogeneousSystem(threads=2)
        kernel = MatmulKernel("char")
        assert dual.offload(kernel).timing.compute_time > \
            quad.offload(kernel).timing.compute_time

    def test_soc_state_machine_sequenced(self, system):
        result = system.offload(MatmulKernel("char"))
        assert system.soc.fetch_enable.edge_count == 2
        assert system.soc.end_of_computation.edge_count == 2
        assert result.verified
