"""Time-harmonic electromagnetic scattering from penetrable media and direct
sampling reconstruction of scatterer supports from near-field data."""

__version__ = "0.1.0"
