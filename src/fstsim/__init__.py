"""Deterministic simulator for federated simultaneous training.

Multiple models train concurrently over one shared, intermittently
available client pool. The package provides a buffered asynchronous server
with static or variance-driven dynamic resource allocation, a synchronous
first-k baseline, a no-buffer asynchronous baseline, pluggable desk-scale
objectives, a calibrated client delay model, and an experiment harness
with seed-reproducible metrics files. Import names from the submodules,
e.g. ``fstsim.harness`` or ``fstsim.config``.
"""

__version__ = "0.1.0"
