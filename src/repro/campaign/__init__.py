"""The on-disk result cache every study, campaign and service job shares.

Point entries are keyed by (workload, ArchConfig, width), which makes
sweeps resumable and re-runs near-free.  A campaign itself is a list
of :class:`~repro.study.spec.StudySpec` (see
:meth:`~repro.study.spec.StudySpec.from_campaign`) that the study
engine runs over one :class:`ResultCache`.
"""

from repro.campaign.cache import (
    CacheStats,
    ResultCache,
    cache_key,
    default_cache_dir,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "cache_key",
    "default_cache_dir",
]
