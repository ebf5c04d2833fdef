"""Adaptive internal-model output regulation for normal-form plants.

Hybrid closed-loop simulation (clock-triggered jumps, fixed-step RK4 flows),
a saturated stabilizer with an extended high-gain observer, an adaptive
internal-model unit, and pluggable discrete-time identifiers.
"""

__version__ = "0.1.0"
