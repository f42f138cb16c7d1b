"""Trace-reconstruction algorithms (Section 1.1.2 and 3.1)."""

from repro.reconstruct.base import Reconstructor, majority_symbol
from repro.reconstruct.bma import BMALookahead, bma_forward_pass
from repro.reconstruct.divider_bma import DividerBMA
from repro.reconstruct.iterative import IterativeReconstruction
from repro.reconstruct.majority import PositionalMajority
from repro.reconstruct.msa import StarMSAConsensus
from repro.reconstruct.two_way import TwoWayIterative

#: Every algorithm by its user-facing name: ``dnasim evaluate
#: --algorithms``, :func:`repro.sharding.run_fullscale`'s ``algorithms``
#: and a sweep spec's ``algorithm`` axis all read this one registry.
RECONSTRUCTORS: dict[str, type[Reconstructor]] = {
    "bma": BMALookahead,
    "divbma": DividerBMA,
    "iterative": IterativeReconstruction,
    "two-way-iterative": TwoWayIterative,
    "majority": PositionalMajority,
    "msa": StarMSAConsensus,
}

__all__ = [
    "BMALookahead",
    "DividerBMA",
    "IterativeReconstruction",
    "PositionalMajority",
    "RECONSTRUCTORS",
    "Reconstructor",
    "StarMSAConsensus",
    "TwoWayIterative",
    "bma_forward_pass",
    "majority_symbol",
]
