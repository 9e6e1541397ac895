"""Analysis and reporting: table/figure regeneration and text rendering."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".accuracy_model": (
            "PAPER_ACCURACY", "AccuracyPoint", "accuracy_gap", "accuracy_model", "accuracy_table",
            "figure6_series",
        ),
        "..core.parameter_model": ("figure5_series",),
        ".figures": ("merge_measured_accuracy",),
        ".report": (
            "Report", "csv_text", "format_records", "format_series", "format_table", "json_safe",
            "pareto_indices", "strict_json",
        ),
        ".tables": (
            "table1_records", "table2_records", "table3_records", "table4_records",
            "table5_records",
        ),
    },
)
