"""repro: a reproduction of *Simulating Noisy Channels in DNA Storage*.

A data-driven simulator for the noisy channel of DNA archival storage,
together with every substrate the paper depends on: trace-reconstruction
algorithms (BMA Look-Ahead, Divider BMA, Iterative, two-way Iterative),
alignment machinery (edit operations, gestalt pattern matching), read
clustering, an end-to-end encode/store/decode pipeline, and a benchmark
harness regenerating every table and figure of the paper's evaluation.

Quick start::

    from repro import (
        ErrorProfile, Simulator, SimulatorStage, ConstantCoverage,
        make_nanopore_dataset, evaluate_reconstruction, BMALookahead,
    )

    real = make_nanopore_dataset(n_clusters=500, seed=0)
    profile = ErrorProfile.from_pool(real, max_copies_per_cluster=4)
    simulator = Simulator.fitted(profile, SimulatorStage.SECOND_ORDER,
                                 coverage=ConstantCoverage(5), seed=1)
    simulated = simulator.simulate(real.references)
    print(evaluate_reconstruction(simulated, BMALookahead()))
"""

from repro.baselines.dnasimulator import DNASimulatorBaseline
from repro.baselines.naive import NaiveSimulator
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
from repro.core.errors import (
    ErrorModel,
    SecondOrderError,
    transition_biased_substitution_matrix,
    uniform_substitution_matrix,
)
from repro.core.profile import ErrorProfile, SimulatorStage
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
from repro.data.nanopore import make_nanopore_dataset
from repro.exceptions import (
    ChannelFaultError,
    ConfigError,
    DataFormatError,
    DecodeError,
    EncodeError,
    ReproError,
    RetrievalError,
)
from repro.metrics.accuracy import (
    AccuracyReport,
    evaluate_reconstruction,
    per_character_accuracy,
    per_strand_accuracy,
)
from repro.parallel import default_workers, resolve_workers, set_default_workers
from repro.reconstruct.bma import BMALookahead
from repro.reconstruct.divider_bma import DividerBMA
from repro.reconstruct.iterative import IterativeReconstruction
from repro.reconstruct.majority import PositionalMajority
from repro.reconstruct.two_way import TwoWayIterative
from repro.robustness import (
    SEVERITY_LEVELS,
    FaultInjector,
    FaultSpec,
    RecoveryResult,
    RetryPolicy,
)

__version__ = "1.0.0"

__all__ = [
    "AccuracyReport",
    "AShapedSpatial",
    "BMALookahead",
    "Channel",
    "ChannelFaultError",
    "Cluster",
    "ConfigError",
    "ConstantCoverage",
    "CoverageModel",
    "CustomCoverage",
    "DataFormatError",
    "DecodeError",
    "DividerBMA",
    "DNASimulatorBaseline",
    "EncodeError",
    "ErasureCoverage",
    "ErrorModel",
    "ErrorProfile",
    "FaultInjector",
    "FaultSpec",
    "HistogramSpatial",
    "IterativeReconstruction",
    "NaiveSimulator",
    "NegativeBinomialCoverage",
    "NormalCoverage",
    "PaperTerminalSkew",
    "PoissonCoverage",
    "PositionalMajority",
    "RecoveryResult",
    "ReproError",
    "RetrievalError",
    "RetryPolicy",
    "SecondOrderError",
    "SEVERITY_LEVELS",
    "Simulator",
    "SimulatorStage",
    "SpatialDistribution",
    "StrandPool",
    "TerminalSkew",
    "TwoWayIterative",
    "UniformSpatial",
    "VShapedSpatial",
    "default_workers",
    "evaluate_reconstruction",
    "make_nanopore_dataset",
    "per_character_accuracy",
    "per_strand_accuracy",
    "resolve_workers",
    "set_default_workers",
    "transition_biased_substitution_matrix",
    "uniform_substitution_matrix",
    "__version__",
]
