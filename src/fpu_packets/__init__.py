"""FPU chain simulator and verification harness for adiabatic mode-packet invariants.

The package's API is its modules (`fpu_packets.chain`, `fpu_packets.experiments`, ...)."""

__version__ = "0.1.0"
