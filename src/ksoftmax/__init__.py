"""Kernelized softmax output layers for contextual word classification."""

__version__ = "0.1.0"
