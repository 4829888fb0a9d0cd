"""Embed, extract, and above all sanitize hidden-data channels in STL files.

STL stores a 3D object as an ordered list of triangular facets, and several
degrees of freedom in that representation never reach the printer: facet
order, the cyclic rotation of each facet's vertex list, the stored normal,
number notation, and whitespace. Each is a covert channel. This package
implements concrete codecs for those channels, a scrubber that destroys any
payload while provably preserving geometry and printability, and an
evaluation harness that measures per-bit survivability across randomized
trials.
"""
from .bits import BitSequence
from .channels import ChannelId, capacity, embed, extract
from .errors import (
    CapacityExceededError,
    ChannelUnavailableError,
    StlParseError,
    StlStegoError,
    UnrecognizedFormatError,
)
from .evaluation import (
    SurvivalMatrix,
    SurvivalStats,
    TrialConfig,
    TrialOutcome,
    compute_stats,
    emit_csv,
    emit_histogram,
    run_experiment,
    run_trial,
    statistical_gates,
)
from .icosphere import generate_test_mesh
from .model import Facet, StlFormat, StlModel
from .rawdoc import RawAsciiDocument
from .sanitize import (
    RandomSource,
    SanitizeReport,
    sanitize_all,
    sanitize_facet_channel,
    sanitize_model,
    sanitize_normal_channel,
    sanitize_vertex_channel,
)
from .stl_io import (
    detect_format,
    parse_ascii,
    parse_binary,
    parse_bytes,
    sanitize_solid_name,
    serialize,
    write_binary,
    write_canonical_ascii,
)

__version__ = "0.1.0"
