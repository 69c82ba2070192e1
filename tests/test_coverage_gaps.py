"""Tests filling coverage gaps across modules: CLI report, figure-5
internals, non-default configurations and error paths."""

import pytest

from repro.cli import main
from repro.core.envelope import PowerEnvelopeSolver
from repro.errors import (
    BudgetError,
    OffloadError,
    KernelError,
)
from repro.experiments import figure5
from repro.kernels.matmul import MatmulKernel
from repro.kernels.svm import SvmKernel
from repro.power.activity import ActivityProfile
from repro.units import mhz, mw


class TestCliReport:
    def test_report_command(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "anchors reproduced" in out
        assert "[FAIL]" not in out

    def test_all_command(self, capsys):
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        for title in ("Table I", "Figure 3", "Figure 4", "Figure 5a",
                      "Figure 5b"):
            assert title in out

    def test_figure5a_command(self, capsys):
        assert main(["figure5a"]) == 0
        assert "strassen" in capsys.readouterr().out


class TestFigure5Internals:
    def test_figure5a_custom_frequencies(self):
        result = figure5.run_figure5a(host_frequencies=(mhz(4), mhz(8)))
        assert len(result.cells) == 10 * 2
        assert len(result.kernels()) == 10

    def test_figure5b_custom_kernel_and_sweep(self):
        result = figure5.run_figure5b(
            kernel=MatmulKernel("short"),
            host_frequencies=(mhz(8),),
            iteration_counts=(1, 8))
        assert result.kernel == "matmul (short)"
        assert len(result.points) == 4  # 1 freq x 2 modes x 2 counts

    def test_figure5b_skips_hostclocks_without_budget(self):
        result = figure5.run_figure5b(host_frequencies=(mhz(32),))
        assert result.points == []

    def test_best_speedup_of_unknown_kernel_is_zero(self):
        result = figure5.run_figure5a(host_frequencies=(mhz(8),))
        assert result.best_speedup("nonexistent") == 0.0


class TestNonDefaultConfigurations:
    def test_matmul_small_sizes_consistent(self, baseline_target):
        small = baseline_target.risc_ops(MatmulKernel("char", n=8)
                                         .build_program())
        large = baseline_target.risc_ops(MatmulKernel("char", n=16)
                                         .build_program())
        # ~n^3 scaling.
        assert large / small == pytest.approx(8.0, rel=0.15)

    def test_svm_binary_classification(self):
        kernel = SvmKernel("linear", classes=2, support_vectors=4,
                           test_vectors=6, dimensions=16)
        outputs = kernel.compute(kernel.generate_inputs(0))
        assert outputs["decisions"].shape == (6, 2)
        assert set(outputs["labels"]) <= {0, 1}

    def test_envelope_solver_with_different_host(self):
        from repro.mcu.catalog import mcu_by_name
        apollo = mcu_by_name("Ambiq Apollo")
        solver = PowerEnvelopeSolver(host_device=apollo)
        point = solver.solve(mhz(24), ActivityProfile.matmul())
        # The Apollo at full speed burns ~2.7 mW: lots left for PULP.
        assert point.accelerator_usable
        assert point.pulp_frequency > mhz(150)

    def test_envelope_link_reserve_counts(self):
        tight = PowerEnvelopeSolver(link_reserve=mw(5))
        loose = PowerEnvelopeSolver(link_reserve=mw(0.05))
        activity = ActivityProfile.matmul()
        assert tight.solve(mhz(8), activity).pulp_frequency < \
            loose.solve(mhz(8), activity).pulp_frequency

    def test_envelope_invalid_reserve(self):
        with pytest.raises(BudgetError):
            PowerEnvelopeSolver(link_reserve=-1.0)


class TestErrorPaths:
    def test_offload_with_mismatched_serialization(self, system):
        class BrokenKernel(MatmulKernel):
            def serialize_inputs(self, inputs):
                return b"wrong size"

        with pytest.raises(OffloadError):
            system.offload(BrokenKernel("char"), host_frequency=mhz(8))

    def test_kernel_bad_inputs_shape(self):
        import numpy as np
        kernel = SvmKernel("linear")
        inputs = kernel.generate_inputs(0)
        inputs["x"] = np.zeros((1, 1), dtype=np.int16)
        with pytest.raises(KernelError):
            kernel.compute(inputs)

    def test_sensor_pipeline_without_budget(self):
        from repro.core.sensor import SensorPath, SensorPipeline
        pipeline = SensorPipeline()
        with pytest.raises(OffloadError):
            pipeline.evaluate(MatmulKernel("char"),
                              SensorPath.THROUGH_HOST,
                              host_frequency=mhz(32))

    def test_fll_tracks_hops(self):
        from repro.pulp.fll import FrequencyLockedLoop
        from repro.power.pulp_model import PULP3_TABLE
        fll = FrequencyLockedLoop(PULP3_TABLE)
        fll.set_frequency(mhz(40), 0.5)
        fll.set_frequency(mhz(100), 0.7)
        assert fll.hops == 2
