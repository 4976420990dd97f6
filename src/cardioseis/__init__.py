"""SCG heartbeat detection and respiratory-phase grouping analysis."""

__version__ = "0.1.0"
