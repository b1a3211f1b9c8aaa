"""The five-stage EO-ML workflow: real execution and simulated twin."""

from repro.core.config import ConfigError, EOMLConfig, StageWorkers, load_config
from repro.core.download import DownloadReport, DownloadStage, GranuleSet
from repro.core.inference import InferenceResult, InferenceWorker
from repro.core.monitor import DirectoryCrawler
from repro.core.preprocess import (
    PreprocessReport,
    PreprocessResult,
    PreprocessStage,
    QuarantineRecord,
)
from repro.core.shipment import ShipmentReport, ShipmentStage
from repro.core.simflow import SimulatedEOMLWorkflow, SimWorkflowParams, SimWorkflowResult
from repro.instruments.tiling import Tile, extract_tiles, tiles_to_dataset
from repro.core.timeline import StageBreakdown, WallClockTimeline
from repro.core.workflow import EOMLWorkflow, WorkflowReport

__all__ = [
    "load_config",
    "EOMLConfig",
    "StageWorkers",
    "ConfigError",
    "Tile",
    "extract_tiles",
    "tiles_to_dataset",
    "DownloadStage",
    "DownloadReport",
    "GranuleSet",
    "PreprocessStage",
    "PreprocessReport",
    "PreprocessResult",
    "QuarantineRecord",
    "DirectoryCrawler",
    "InferenceWorker",
    "InferenceResult",
    "ShipmentStage",
    "ShipmentReport",
    "EOMLWorkflow",
    "WorkflowReport",
    "WallClockTimeline",
    "StageBreakdown",
    "SimulatedEOMLWorkflow",
    "SimWorkflowParams",
    "SimWorkflowResult",
]
