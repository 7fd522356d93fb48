"""Data ingestion, DC analysis, sweep orchestration and report emission."""

from .config import AnalysisConfig, FitSettings, RunSettings, load_config
from .dc import DcExtraction, extract_tc_rrr
from .forward import calibrate_sweep_config, loss_chain, synth_sweep
from .io import ingest_rt, ingest_s21, write_s21_csv
from .report import emit_report, report_to_dict
from .sweep import AnalysisReport, sweep_analyze
from .xrd import lattice_constant

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "DcExtraction",
    "FitSettings",
    "RunSettings",
    "calibrate_sweep_config",
    "emit_report",
    "extract_tc_rrr",
    "ingest_rt",
    "ingest_s21",
    "lattice_constant",
    "load_config",
    "loss_chain",
    "report_to_dict",
    "sweep_analyze",
    "synth_sweep",
    "write_s21_csv",
]
