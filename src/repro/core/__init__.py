"""Core of the simulator: strands, spatial/coverage models, the IDS
channel, data-driven profiling, and the simulator front-end."""

from repro.core.channel import Channel
from repro.core.coverage import (
    ConstantCoverage,
    CoverageModel,
    CustomCoverage,
    ErasureCoverage,
    NegativeBinomialCoverage,
    NormalCoverage,
    PoissonCoverage,
)
from repro.core.errors import ErrorModel, SecondOrderError
from repro.core.profile import ErrorProfile, SimulatorStage, fit_three_position_skew
from repro.core.simulator import Simulator
from repro.core.spatial import (
    AShapedSpatial,
    HistogramSpatial,
    PaperTerminalSkew,
    SpatialDistribution,
    TerminalSkew,
    UniformSpatial,
    VShapedSpatial,
)
from repro.core.strand import Cluster, StrandPool

__all__ = [
    "Channel",
    "Cluster",
    "ConstantCoverage",
    "CoverageModel",
    "CustomCoverage",
    "ErasureCoverage",
    "ErrorModel",
    "ErrorProfile",
    "HistogramSpatial",
    "NegativeBinomialCoverage",
    "NormalCoverage",
    "PaperTerminalSkew",
    "PoissonCoverage",
    "SecondOrderError",
    "Simulator",
    "SimulatorStage",
    "SpatialDistribution",
    "StrandPool",
    "TerminalSkew",
    "UniformSpatial",
    "VShapedSpatial",
    "AShapedSpatial",
    "fit_three_position_skew",
]
