"""Former home of :func:`~repro.sim.sensitivity.topology_signature`,
kept as an import path because ``perfbench/run.py`` still imports it
from here; new code imports it from :mod:`repro.sim.sensitivity`."""

from repro.sim.sensitivity import topology_signature

__all__ = ["topology_signature"]
