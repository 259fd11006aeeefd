"""Non-invertible spatio-temporal encodings with Hamming-range matching."""

__version__ = "0.1.0"
