"""Fill the benchmark's ATPG cache before anything is timed.

Back-annotates every component type of the width-16 ``crypt`` space
(the socket first), which is everything ``explore-crypt`` asks the
ATPG cache for.  ``run.py`` runs this once per checkout with
``REPRO_ATPG_CACHE`` pointing at ``.bench_state/atpg``.
"""

from __future__ import annotations

from repro.explore.space import build_architecture_cached, space_by_name
from repro.testcost.backannotate import (
    component_backannotation,
    socket_pattern_count,
)


def main() -> None:
    specs = {}
    for config in space_by_name("crypt"):
        for unit in build_architecture_cached(config, 16).units.values():
            specs[unit.spec.name] = unit.spec
    socket_pattern_count()
    for name in sorted(specs):
        component_backannotation(specs[name], "March C-")


if __name__ == "__main__":
    main()
