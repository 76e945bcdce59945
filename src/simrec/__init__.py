"""Simile sentence classification and component extraction over
heterogeneous sentence graphs, with three-decoding-order ensemble
distillation. Pure numpy numerics, including the edge-level kernels."""

__version__ = "0.1.0"
