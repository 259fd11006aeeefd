"""Non-invertible spatio-temporal encodings with Hamming-range matching."""

from .encoder import (
    PolyCodeParams,
    RrnsParams,
    basic_encode,
    corrupt,
    encode,
    encode_unsorted,
    inflate,
    load_params,
    save_params,
    sort_code,
    sorted_codes,
)
from .matcher import (
    DatabaseEntry,
    MatchIndex,
    build_index,
    hamming,
    scan_match,
)

__all__ = [
    "PolyCodeParams",
    "RrnsParams",
    "basic_encode",
    "corrupt",
    "encode",
    "encode_unsorted",
    "inflate",
    "load_params",
    "save_params",
    "sort_code",
    "sorted_codes",
    "DatabaseEntry",
    "MatchIndex",
    "build_index",
    "hamming",
    "scan_match",
]

__version__ = "0.1.0"
