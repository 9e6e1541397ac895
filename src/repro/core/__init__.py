"""The paper's contribution: ODENet / rODENet variants and their FPGA offload.

This package contains the architecture specifications of Table 4, executable
network builders, the ODEBlock (block-as-ODE-dynamics) module, the analytical
parameter-size model (Table 2 / Figure 5), the end-to-end execution-time
model (Table 5) and the offload planner (Section 3.2).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".architectures": (
            "OdeNetConfig", "OdeNetModel", "build_network", "count_block_executions",
        ),
        ".execution_model": (
            "PAPER_OFFLOAD_TARGETS", "TABLE5_MODELS", "ExecutionTimeModel", "ExecutionTimeReport",
            "LayerTimeEntry",
        ),
        ".network_spec": (
            "INPUT_CHANNELS", "INPUT_SIZE", "LAYER_ORDER", "NETWORK_LAYERS", "NUM_CLASSES",
            "OFFLOADABLE_LAYER_NAMES", "LayerGeometry", "layer_geometry",
        ),
        ".odeblock": ("ODEBlock", "ODEBlockFunction", "PlainBlock"),
        ".offload": ("OffloadDecision", "OffloadPlanner"),
        ".parameter_model": (
            "figure5_series", "parameter_reduction_percent", "parameter_size_series",
            "table2_structure", "variant_parameter_bytes", "variant_parameter_count",
        ),
        ".training_model": ("TrainingTimeModel", "TrainingTimeReport"),
        ".variants": (
            "SUPPORTED_DEPTHS", "VARIANT_NAMES", "BlockRealization", "LayerPlan", "VariantSpec",
            "table4_rows", "table4_variant", "variant_spec",
        ),
    },
)
