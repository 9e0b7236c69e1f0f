"""Emulated "real run" (Section 4.4 of the paper).

The paper validates SD-Policy on 49 nodes of MareNostrum4 by replaying a
2000-job Cirne-model workload converted into submissions of real malleable
applications (PILS, STREAM, CoreNeuron, NEST, Alya).  Hardware access is not
available to this reproduction, so the run is *emulated*: the same SD-Policy
code is driven by the simulator with

* the per-application performance models of :mod:`repro.core.profiles`
  capturing CPU- vs memory-bound scaling behaviour,
* the node-sharing interference model of :mod:`repro.core.contention`
  reflecting socket-isolated co-scheduling, and
* an application-aware energy model (:mod:`repro.realrun.energy`).

:class:`repro.realrun.emulator.RealRunEmulator` reproduces Figure 9:
the percentage improvement of makespan, average response time, average
slowdown and energy of SD-Policy over static backfill.
"""

from repro.core.contention import ApplicationAwareRuntimeModel, co_run_slowdown
from repro.core.profiles import APPLICATIONS, ApplicationModel, get_application
from repro.realrun.emulator import RealRunEmulator, RealRunOutcome

__all__ = [
    "APPLICATIONS",
    "ApplicationAwareRuntimeModel",
    "ApplicationModel",
    "RealRunEmulator",
    "RealRunOutcome",
    "co_run_slowdown",
    "get_application",
]
