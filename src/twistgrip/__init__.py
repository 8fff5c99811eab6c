"""Analytical models, fitting, and synthetic tactile perception for a
rotation-based squeezing soft gripper."""

__version__ = "0.1.0"
