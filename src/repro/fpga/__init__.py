"""FPGA hardware-model substrate (PYNQ-Z2 / Zynq XC7Z020 simulation).

This package stands in for the physical board and the Vivado toolchain: it
models the PL-part ODEBlock's fixed-point arithmetic, execution cycles,
resource utilisation, timing closure, and the PS<->PL AXI transfers, all
calibrated against the numbers published in the paper.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".axi": ("AxiTransferModel", "TransferEstimate"),
        ".bram": (
            "BRAM36_BYTES", "BramPlan", "BramRegion", "bram_fits_kernel", "bram_tiles_kernel",
            "plan_block_allocation", "tiles_for_bytes", "tiles_for_bytes_kernel",
        ),
        ".cycles": ("PAPER_LAYER3_2_CYCLES", "CycleBreakdown", "OdeBlockCycleModel"),
        "..platform": (
            "PYNQ_Z2", "ZYNQ_XC7Z020", "BoardSpec", "FpgaDevice", "PowerProfile", "ResourceVector",
        ),
        ".geometry": (
            "LAYER1", "LAYER2_2", "LAYER3_2", "OFFLOADABLE_BLOCKS", "BlockGeometry",
            "block_geometry",
        ),
        ".gemm": (
            "FLOAT_MANTISSA_BITS", "MAX_LIMBS", "GemmPlan", "PlannedGemm",
            "plan_gemm",
        ),
        ".odeblock_hw": ("GROUP_ELEMENTS", "BlockWeights", "HardwareODEBlock", "image_groups"),
        ".ops": ("hw_batch_norm", "hw_conv2d", "hw_relu", "hw_residual_add"),
        ".power": ("EnergyEstimate", "PowerModel"),
        ".resources": (
            "PUBLISHED_TABLE3", "ResourceEstimate", "ResourceEstimator", "published_table3",
        ),
        ".timing": (
            "TimingModel", "TimingReport", "critical_path_ns_kernel", "fmax_hz_kernel",
            "meets_timing_kernel", "slack_ns_kernel",
        ),
    },
)
