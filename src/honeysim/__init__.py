"""honeysim: a deterministic simulation of a virtualized cloud under
attack, defended by an autonomous agent that manages deception
honeypots, learns from a shaped reward, selects actions through a
resource-gated decision cascade, and operates inside hard guardrails.

The hot per-tick kernels are plain Python in honeysim._kernels.pure.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
