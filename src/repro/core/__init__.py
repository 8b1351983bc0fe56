"""The characterization methodology: per-run measurement and sweeps."""

from .characterize import characterize, encode_workload, workload_scales
from .report import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
    Series,
    Table,
    format_result,
    format_table,
)
from .serialize import from_jsonable, register, to_jsonable
from .session import CellSpec, RunKey, Session
from .sweeps import (
    ThreadStudy,
    comparable_preset,
    scale_crf,
    sweep_cells,
    sweep_specs,
    thread_study,
)

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "CellSpec",
    "ExperimentResult",
    "RunKey",
    "Series",
    "Session",
    "Table",
    "ThreadStudy",
    "characterize",
    "comparable_preset",
    "encode_workload",
    "format_result",
    "format_table",
    "from_jsonable",
    "register",
    "scale_crf",
    "sweep_cells",
    "sweep_specs",
    "thread_study",
    "to_jsonable",
    "workload_scales",
]
