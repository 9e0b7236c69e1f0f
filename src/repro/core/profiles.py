"""Application performance profiles (Table 2), promoted to the core layer.

Each profile captures the two properties the paper identifies as the source
of the real-run gains (Section 4.4):

1. *Imperfect scalability* — applications do not scale perfectly to all 48
   cores of a MareNostrum4 node, so giving up half of the cores costs them
   less than half of their speed.  We model the speed at a fraction ``f`` of
   the requested cores as ``f ** parallel_alpha`` (``alpha = 1`` is perfect
   scaling, smaller values mean the application is increasingly limited by
   something other than core count — typically memory bandwidth).
2. *Resource complementarity* — memory-bound applications leave cores
   under-utilised that a compute-bound co-runner can exploit; conversely,
   two memory-bound applications sharing a node contend for bandwidth.  The
   per-application ``cpu_utilization`` and ``memory_intensity`` feed the
   interference, bandwidth-feasibility and energy models.

The concrete numbers are calibrated to the qualitative characterisation of
Table 2 (PILS compute-bound / low memory, STREAM memory-bound / low CPU,
CoreNeuron & NEST compute+memory intensive, Alya multi-physics) and to the
DROM paper's observation that shrinking costs little for memory-bound codes.

This module is the single source of truth for the profiles, shared by the
schedulers, the runtime models and the real-run emulator.
Profiles are grouped into named *profile sets* so policies and runtime
models can be pointed at a different calibration (``--profiles`` on the
CLI); the schema of a profile is fingerprinted in ``formats.lock`` under
:data:`PROFILE_SCHEMA_VERSION`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

#: Version of the persisted/fingerprinted profile schema.  Bump whenever the
#: fields of :class:`ApplicationModel` or the named profile sets change
#: meaning, so ``formats.lock`` catches accidental drift.
PROFILE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ApplicationModel:
    """Performance profile of one application of the real-run workload.

    Attributes
    ----------
    name:
        Application name as used in Table 2.
    cpu_utilization:
        Fraction of an assigned core's cycles the application actually uses
        (drives the dynamic part of the energy model).
    memory_intensity:
        How strongly the application presses on the memory subsystem
        (0 = negligible, 1 = STREAM-like saturation); drives interference
        and the bandwidth-capacity feasibility check of UB-Policy.
    memory_sensitivity:
        How much the application *suffers* from a co-runner's memory
        pressure (usually correlated with its own intensity).
    parallel_alpha:
        Exponent of the core-fraction speed model ``speed = f ** alpha``.
        1.0 = perfectly scalable, 0 = completely insensitive to core count.
    """

    name: str
    cpu_utilization: float
    memory_intensity: float
    memory_sensitivity: float
    parallel_alpha: float

    def shrink_speed(self, fraction: float) -> float:
        """Relative speed when running on ``fraction`` of the requested cores."""
        if fraction >= 1.0:
            return 1.0
        if fraction <= 0.0:
            return 0.0
        return fraction ** self.parallel_alpha


#: The Table 2 applications.
APPLICATIONS: Dict[str, ApplicationModel] = {
    "PILS": ApplicationModel(
        name="PILS", cpu_utilization=0.95, memory_intensity=0.10,
        memory_sensitivity=0.10, parallel_alpha=0.95,
    ),
    "STREAM": ApplicationModel(
        name="STREAM", cpu_utilization=0.40, memory_intensity=0.95,
        memory_sensitivity=0.90, parallel_alpha=0.30,
    ),
    "CoreNeuron": ApplicationModel(
        name="CoreNeuron", cpu_utilization=0.85, memory_intensity=0.55,
        memory_sensitivity=0.50, parallel_alpha=0.80,
    ),
    "NEST": ApplicationModel(
        name="NEST", cpu_utilization=0.85, memory_intensity=0.55,
        memory_sensitivity=0.50, parallel_alpha=0.80,
    ),
    "Alya": ApplicationModel(
        name="Alya", cpu_utilization=0.90, memory_intensity=0.60,
        memory_sensitivity=0.55, parallel_alpha=0.85,
    ),
}

#: Profile used for jobs without an application label (e.g. plain simulator
#: workloads passed through the real-run machinery): perfectly scalable and
#: fully CPU-bound, which reduces to the plain worst-case/ideal behaviour.
DEFAULT_APPLICATION = ApplicationModel(
    name="generic", cpu_utilization=1.0, memory_intensity=0.3,
    memory_sensitivity=0.3, parallel_alpha=1.0,
)

#: Named profile sets selectable via ``--profiles``.  ``table2`` is the
#: paper's calibration; ``uniform`` maps every label to the generic profile,
#: which neutralises all profile-driven behaviour (useful as an ablation).
PROFILE_SETS: Dict[str, Mapping[str, ApplicationModel]] = {
    "table2": APPLICATIONS,
    "uniform": {},
}

#: Stable enumeration of the available profile sets (fingerprinted).
PROFILE_SET_NAMES: Tuple[str, ...] = tuple(sorted(PROFILE_SETS))


def get_profile_set(name: str) -> Mapping[str, ApplicationModel]:
    """Look up a named profile set, naming the candidates on a miss."""
    try:
        return PROFILE_SETS[name]
    except KeyError:
        available = ", ".join(PROFILE_SET_NAMES)
        raise ValueError(
            f"unknown profile set {name!r}; available: {available}"
        ) from None


def profile_index(profile_set: Mapping[str, ApplicationModel]) -> Dict[str, ApplicationModel]:
    """A profile set keyed by lower-cased name, for :func:`lookup_indexed`.

    When several keys of the set differ only in case, the first one in the
    set's order wins.  Build it once per set: a lookup is then one dict
    access instead of a scan of the set.
    """
    index: Dict[str, ApplicationModel] = {}
    for key, model in profile_set.items():
        index.setdefault(key.lower(), model)
    return index


def lookup_indexed(index: Mapping[str, ApplicationModel], name: Optional[str]) -> ApplicationModel:
    """Look up an application in a :func:`profile_index` (with default)."""
    if name is None:
        return DEFAULT_APPLICATION
    return index.get(name.lower(), DEFAULT_APPLICATION)


_APPLICATIONS_INDEX = profile_index(APPLICATIONS)


def lookup_application(
    name: Optional[str],
    profile_set: Optional[Mapping[str, ApplicationModel]] = None,
) -> ApplicationModel:
    """Look up an application profile in a set (case-insensitive, defaulting).

    When several keys of the set differ only in case, the first one in the
    set's order wins.
    """
    if profile_set is None:
        return lookup_indexed(_APPLICATIONS_INDEX, name)
    return lookup_indexed(profile_index(profile_set), name)


def get_application(name: Optional[str]) -> ApplicationModel:
    """Look up an application model by name (case-insensitive, with default)."""
    return lookup_application(name)
