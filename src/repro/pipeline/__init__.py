"""The end-to-end storage pipeline: codecs, error correction, physical
processes, and the archival store (Fig. 1.1)."""

from repro.pipeline.decay import DecayParameters, StorageDecay
from repro.pipeline.encoding import (
    Basic2BitCodec,
    Codec,
    CodecError,
    GCBalancedCodec,
    RotationCodec,
)
from repro.pipeline.pcr import AmplifiedPool, PCRAmplifier, PCRParameters
from repro.pipeline.primers import (
    PrimerDesignError,
    generate_primer_library,
    is_valid_primer,
    match_primer,
)
from repro.pipeline.reed_solomon import ReedSolomon, ReedSolomonError
from repro.pipeline.stages import (
    StagedChannel,
    StageReport,
    default_sequencing_model,
    default_staged_channel,
    default_synthesis_model,
)
from repro.pipeline.storage import (
    ArchiveError,
    DNAArchive,
    RetrievalReport,
    StoredFile,
)
from repro.pipeline.synthesis import StrandLayout, StrandParseError, crc8

__all__ = [
    "AmplifiedPool",
    "ArchiveError",
    "Basic2BitCodec",
    "Codec",
    "CodecError",
    "DNAArchive",
    "DecayParameters",
    "GCBalancedCodec",
    "PCRAmplifier",
    "PCRParameters",
    "PrimerDesignError",
    "ReedSolomon",
    "ReedSolomonError",
    "RetrievalReport",
    "RotationCodec",
    "StageReport",
    "StagedChannel",
    "StorageDecay",
    "StoredFile",
    "StrandLayout",
    "StrandParseError",
    "crc8",
    "default_sequencing_model",
    "default_staged_channel",
    "default_synthesis_model",
    "generate_primer_library",
    "is_valid_primer",
    "match_primer",
]
