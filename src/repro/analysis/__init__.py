"""Analysis and reporting: table/figure regeneration and text rendering."""

from .accuracy_model import (
    PAPER_ACCURACY,
    AccuracyPoint,
    accuracy_gap,
    accuracy_model,
    accuracy_table,
)
from .figures import figure5_series, figure6_series, merge_measured_accuracy
from .report import format_records, format_series, format_table, json_safe
from .tables import (
    table1_records,
    table2_records,
    table3_records,
    table4_records,
    table5_records,
)

__all__ = [
    "AccuracyPoint",
    "PAPER_ACCURACY",
    "accuracy_model",
    "accuracy_gap",
    "accuracy_table",
    "figure5_series",
    "figure6_series",
    "merge_measured_accuracy",
    "format_table",
    "format_records",
    "format_series",
    "json_safe",
    "table1_records",
    "table2_records",
    "table3_records",
    "table4_records",
    "table5_records",
]
