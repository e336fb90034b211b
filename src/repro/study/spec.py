"""Declarative study descriptions.

A :class:`StudySpec` is the *what* of one exploration: which workloads
(registry names), over which space (a registry name or inline
configurations), at which datapath width, under which objective vector,
driven by which search strategy.  It is frozen and JSON-round-trippable
so studies can live in version control next to the results they
produced.  Legacy campaign JSON (workloads x spaces x widths) is read
by :meth:`StudySpec.from_campaign`: a campaign *is* one multi-workload
study per (space, width), run over one shared result cache.

Execution knobs that do not change results (cache directory, progress
callbacks) stay out of the spec; the parallelism hint ``workers`` is
included because strategies may consult it when deciding how to batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.apps.registry import workload_entry
from repro.explore.space import ArchConfig, RFConfig, space_by_name
from repro.study.objectives import resolve_objectives
from repro.study.strategies import validate_strategy_params

#: Spec value meaning "the space is given inline, not by registry name".
INLINE_SPACE = "inline"


def _json_safe(value):
    """Normalise one strategy-param value to a JSON-serialisable shape.

    Config objects become their dict form (strategies coerce them back),
    so a spec carrying e.g. the iterative strategy's ``seeds`` round-trips
    through JSON like every other field.
    """
    if isinstance(value, (ArchConfig, RFConfig)):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ValueError(
        f"strategy param value {value!r} is not JSON-serialisable"
    )


def campaign_dict(data: dict) -> dict:
    """A campaign dict with its defaults filled in, checked.

    The campaign format — ``name``, ``workloads``, ``spaces``,
    ``widths``, ``attach_test_costs``, ``march``, ``select``,
    ``weights`` — is what ``repro campaign --spec`` reads.  The
    returned dict has exactly those keys, in that order, which is also
    the shape ``repro campaign --out-dir`` records as ``spec.json``.
    """
    campaign = {
        "name": str(data["name"]),
        "workloads": list(data["workloads"]),
        "spaces": list(data.get("spaces", ("crypt",))),
        "widths": [int(w) for w in data.get("widths", (16,))],
        "attach_test_costs": bool(data.get("attach_test_costs", False)),
        "march": str(data.get("march", "March C-")),
        "select": bool(data.get("select", False)),
        "weights": [float(w) for w in data.get("weights", (1.0, 1.0, 1.0))],
    }
    if not campaign["name"]:
        raise ValueError("campaign needs a name")
    if not campaign["workloads"]:
        raise ValueError("campaign needs at least one workload")
    if not campaign["spaces"]:
        raise ValueError("campaign needs at least one space")
    if not campaign["widths"] or any(w <= 0 for w in campaign["widths"]):
        raise ValueError("widths must be positive")
    return campaign


@dataclass(frozen=True)
class StudySpec:
    """One study: workloads x (space, width) under objectives + strategy."""

    name: str
    workloads: tuple[str, ...]
    space: str | tuple[ArchConfig, ...] = "crypt"
    width: int = 16
    objectives: tuple[str, ...] = ("area", "cycles")
    strategy: str = "exhaustive"
    strategy_params: tuple[tuple[str, object], ...] = ()
    select: bool = False
    weights: tuple[float, ...] | None = None
    march: str = "March C-"
    tech: str = "default"
    workers: int = 1

    def __post_init__(self) -> None:
        # Normalise convenience forms so equality/serialisation see one
        # canonical shape: a single workload name, a list space, a dict
        # of strategy params.
        if isinstance(self.workloads, str):
            object.__setattr__(self, "workloads", (self.workloads,))
        else:
            object.__setattr__(self, "workloads", tuple(self.workloads))
        if not isinstance(self.space, str):
            object.__setattr__(self, "space", tuple(self.space))
        object.__setattr__(self, "objectives", tuple(self.objectives))
        params = (
            self.strategy_params
            if isinstance(self.strategy_params, dict)
            else dict(self.strategy_params)
        )
        object.__setattr__(
            self,
            "strategy_params",
            tuple(sorted((k, _json_safe(v)) for k, v in params.items())),
        )
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))

        if not self.name:
            raise ValueError("study needs a name")
        if not self.workloads:
            raise ValueError("study needs at least one workload")
        if not self.objectives:
            raise ValueError("study needs at least one objective")
        if isinstance(self.space, tuple) and not self.space:
            raise ValueError("inline space needs at least one configuration")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1 (got {self.workers}); "
                "use workers=1 for the serial path"
            )
        # Fail before the sweep runs, not in the selection afterwards
        # (extra weights beyond the vector's dimension are ignored, so
        # a campaign's three weights also serve its 2-D studies).
        if self.weights is not None and len(self.weights) < len(
            self.objectives
        ):
            raise ValueError(
                f"need {len(self.objectives)} weights for objectives "
                f"{self.objectives}, got {len(self.weights)}"
            )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    @property
    def params(self) -> dict:
        """The strategy params as a plain dict."""
        return dict(self.strategy_params)

    @property
    def space_label(self) -> str:
        """The space's registry name, or ``inline`` for literal configs."""
        return self.space if isinstance(self.space, str) else INLINE_SPACE

    def resolve_space(self) -> list[ArchConfig]:
        """The concrete configuration list this study sweeps."""
        if isinstance(self.space, str):
            return space_by_name(self.space)
        return list(self.space)

    def validate(self) -> None:
        """Resolve every registry reference (raises KeyError/ValueError).

        Runs before anything is evaluated, so a typo in a workload or
        space name fails in milliseconds with the registry's
        known-names message instead of mid-sweep.
        """
        from repro.energy.model import technology_by_name

        try:
            for workload in self.workloads:
                workload_entry(workload)
            if isinstance(self.space, str):
                space_by_name(self.space)
            resolve_objectives(self.objectives)
            validate_strategy_params(self.strategy, self.params)
            technology_by_name(self.tech)
        except (KeyError, ValueError) as exc:
            kind = type(exc)
            message = exc.args[0] if exc.args else str(exc)
            raise kind(f"study {self.name!r}: {message}") from None

    @property
    def spec_id(self) -> str:
        """Stable content hash of this spec (hex SHA-256).

        Every party that needs to recognise "the same study" — service
        clients, the job queue's duplicate-submit dedupe, checkpoint
        files (:func:`~repro.resilience.checkpoint.spec_digest` is the
        same function) — keys on this id, so they can never disagree
        about identity.  Two specs that normalise to the same canonical
        dict share an id; any field change produces a new one.
        """
        from repro.resilience.checkpoint import spec_digest

        return spec_digest(self.to_dict())

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        space = (
            self.space
            if isinstance(self.space, str)
            else [config.to_dict() for config in self.space]
        )
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "space": space,
            "width": self.width,
            "objectives": list(self.objectives),
            "strategy": self.strategy,
            "strategy_params": self.params,
            "select": self.select,
            "weights": None if self.weights is None else list(self.weights),
            "march": self.march,
            "tech": self.tech,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> StudySpec:
        space = data.get("space", "crypt")
        if not isinstance(space, str):
            space = tuple(ArchConfig.from_dict(c) for c in space)
        weights = data.get("weights")
        return cls(
            name=str(data["name"]),
            workloads=tuple(data["workloads"]),
            space=space,
            width=int(data.get("width", 16)),
            objectives=tuple(data.get("objectives", ("area", "cycles"))),
            strategy=str(data.get("strategy", "exhaustive")),
            strategy_params=dict(data.get("strategy_params", {})),
            select=bool(data.get("select", False)),
            weights=None if weights is None else tuple(
                float(w) for w in weights
            ),
            march=str(data.get("march", "March C-")),
            tech=str(data.get("tech", "default")),
            workers=int(data.get("workers", 1)),
        )

    @classmethod
    def from_campaign(cls, data: dict) -> list[StudySpec]:
        """The studies a campaign dict (:func:`campaign_dict`) denotes.

        One exhaustive study per (space, width), in that order, each
        sweeping all the campaign's workloads under the paper's
        objective vector: (area, cycles), plus the test axis when the
        campaign attaches test costs.  Every study carries the campaign
        name, so one tracer records the whole campaign under it.
        """
        campaign = campaign_dict(data)
        objectives = ("area", "cycles")
        if campaign["attach_test_costs"]:
            objectives += ("test_cost",)
        return [
            cls(
                name=campaign["name"],
                workloads=campaign["workloads"],
                space=space,
                width=width,
                objectives=objectives,
                select=campaign["select"],
                weights=campaign["weights"],
                march=campaign["march"],
            )
            for space in campaign["spaces"]
            for width in campaign["widths"]
        ]

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> StudySpec:
        return cls.from_dict(json.loads(text))

    def __hash__(self) -> int:
        # The generated dataclass hash would require every strategy-param
        # value to be hashable, but structured params (iterative seeds)
        # normalise to lists/dicts.  The content hash is unique per
        # canonical spec, so hash that instead — specs stay usable as
        # dict/lru_cache keys.
        return hash(self.spec_id)
