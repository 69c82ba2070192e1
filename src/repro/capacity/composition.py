"""The fleet-composition search space: archetype mixes + routing.

A *composition* is a count vector over node archetypes — how many
nodes of each :class:`~repro.serve.archetype.NodeArchetype` the fleet
provisions — plus a per-kernel routing table steering each kernel of
the arrival mix to one archetype.  The space enumerates every count
vector inside the node bound whose provisioned power fits the fleet
budget; routing is derived (not enumerated): each kernel goes to the
composition archetype with the best fast-tier energy-delay product,
the classic single-number compromise between serving it fast and
serving it cheap.

Provisioned power is the static worst case an operator must budget
for: every node lit at its envelope's fast-tier budget (the envelope
solver packs host + accelerator draw to exactly that budget, so a
node's peak draw *is* its ``fast_budget_mw``).

Configurations canonicalize to plain JSON dicts and hash with the DSE's
content hash, :func:`repro.records.config_hash`, so planner records,
caches and reruns agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.records import config_hash
from repro.serve.archetype import NodeArchetype
from repro.serve.fleet import ServiceBook
from repro.units import mw

#: The default archetype catalog the planner searches over: the
#: reference L476 fleet node, the low-power Apollo host at full and
#: half cluster width, the EFM32 energy-lean option, and a throttled
#: 8 mW L476 envelope.  All verified buildable against the calibrated
#: power envelopes.
DEFAULT_CATALOG: Tuple[NodeArchetype, ...] = (
    NodeArchetype(name="l476-x4"),
    NodeArchetype(name="apollo-x4", mcu="Ambiq Apollo"),
    NodeArchetype(name="apollo-x2", mcu="Ambiq Apollo", cluster_size=2),
    NodeArchetype(name="efm32-x4", mcu="EFM32"),
    NodeArchetype(name="l476-x4-lean", fast_budget_mw=8.0,
                  eco_budget_mw=5.0),
)


def provisioned_node_w(archetype: NodeArchetype) -> float:
    """Peak provisioned draw of one node: its fast-tier envelope."""
    return mw(archetype.fast_budget_mw)


def routing_for(books: Dict[str, ServiceBook], kernels: Tuple[str, ...],
                ) -> Dict[str, str]:
    """Route each kernel to the archetype with the best fast-tier EDP.

    Energy-delay product per warm request — ties break on archetype
    name so the table is deterministic for any dict order of *books*.
    """
    if not books:
        raise ConfigurationError("routing needs at least one archetype")
    table: Dict[str, str] = {}
    for kernel in kernels:
        best: Optional[Tuple[float, str]] = None
        for name in sorted(books):
            profile = books[name].profile(kernel, "fast")
            warm_s = profile.unit_io_time + profile.unit_compute_time
            warm_j = profile.unit_io_energy + profile.unit_compute_energy
            edp = warm_s * warm_j
            if best is None or (edp, name) < best:
                best = (edp, name)
        table[kernel] = best[1]
    return table


@dataclass(frozen=True)
class Composition:
    """One candidate fleet: named archetype counts plus routing."""

    #: ``(archetype, count)`` with count >= 1, in catalog order.
    groups: Tuple[Tuple[NodeArchetype, int], ...]
    #: kernel -> archetype name (every name present in ``groups``).
    routing: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigurationError("a composition needs >= 1 group")
        names = [a.name for a, _ in self.groups]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate archetypes: {names}")
        for archetype, count in self.groups:
            if count < 1:
                raise ConfigurationError(
                    f"{archetype.name}: count must be >= 1, got {count}")
        for kernel, target in self.routing.items():
            if target not in names:
                raise ConfigurationError(
                    f"kernel {kernel!r} routed to unknown archetype "
                    f"{target!r}; composition has {names}")

    @property
    def nodes(self) -> int:
        """Total node count across the groups."""
        return sum(count for _, count in self.groups)

    @property
    def provisioned_w(self) -> float:
        """Static worst-case fleet draw (every node at its envelope)."""
        return sum(count * provisioned_node_w(archetype)
                   for archetype, count in self.groups)

    def config(self) -> Dict[str, object]:
        """The canonical JSON configuration (hash input)."""
        return {
            "archetypes": {archetype.name: count
                           for archetype, count in self.groups},
            "routing": dict(sorted(self.routing.items())),
        }

    def config_hash(self) -> str:
        """Stable content hash of :meth:`config`."""
        return config_hash(self.config())

    def label(self) -> str:
        """Compact human-readable form, e.g. ``2*l476-x4 + 1*efm32-x4``."""
        return " + ".join(f"{count}*{archetype.name}"
                          for archetype, count in self.groups)


@dataclass(frozen=True)
class CompositionSpace:
    """Every archetype mix inside the node and power bounds."""

    catalog: Tuple[NodeArchetype, ...] = DEFAULT_CATALOG
    #: Fleet size bounds (total nodes across archetypes).
    min_nodes: int = 1
    max_nodes: int = 6
    #: Per-archetype count ceiling (keeps the enumeration polynomial).
    max_per_archetype: int = 4
    #: Fleet power budget in watts; None = unbounded.
    power_budget_w: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.catalog:
            raise ConfigurationError("the catalog cannot be empty")
        names = [a.name for a in self.catalog]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate archetype names in catalog: {names}")
        if self.min_nodes < 1:
            raise ConfigurationError(
                f"min_nodes must be >= 1, got {self.min_nodes}")
        if self.max_nodes < self.min_nodes:
            raise ConfigurationError(
                f"max_nodes {self.max_nodes} < min_nodes {self.min_nodes}")
        if self.max_per_archetype < 1:
            raise ConfigurationError(
                f"max_per_archetype must be >= 1, "
                f"got {self.max_per_archetype}")
        if self.power_budget_w is not None and self.power_budget_w <= 0:
            raise ConfigurationError(
                f"power budget must be > 0, got {self.power_budget_w}")

    def count_vectors(self) -> Iterator[Tuple[int, ...]]:
        """All per-archetype count vectors inside the node bounds."""
        bounds = [min(self.max_per_archetype, self.max_nodes)] \
            * len(self.catalog)

        def rec(index: int, remaining: int,
                prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
            if index == len(bounds):
                if sum(prefix) >= self.min_nodes:
                    yield prefix
                return
            for count in range(0, min(bounds[index], remaining) + 1):
                yield from rec(index + 1, remaining - count,
                               prefix + (count,))

        yield from rec(0, self.max_nodes, ())

    def compositions(self) -> Iterator[Composition]:
        """Every in-budget composition, routing left to the planner."""
        for vector in self.count_vectors():
            groups = tuple((archetype, count)
                           for archetype, count in zip(self.catalog, vector)
                           if count > 0)
            if not groups:
                continue
            composition = Composition(groups=groups)
            if self.power_budget_w is not None \
                    and composition.provisioned_w \
                    > self.power_budget_w * (1.0 + 1e-9):
                continue
            yield composition

    def to_dict(self) -> Dict[str, object]:
        """JSON summary of the space (for planner reports)."""
        return {
            "catalog": [archetype.to_dict() for archetype in self.catalog],
            "min_nodes": self.min_nodes,
            "max_nodes": self.max_nodes,
            "max_per_archetype": self.max_per_archetype,
            "power_budget_mw": (self.power_budget_w * 1e3
                                if self.power_budget_w is not None
                                else None),
        }


def routed_compositions(space: CompositionSpace,
                        books: Dict[str, ServiceBook],
                        kernels: Tuple[str, ...]) -> List[Composition]:
    """The space's compositions with their derived routing tables.

    *books* maps archetype name to built service book; compositions
    containing an archetype without a book (e.g. an infeasible power
    envelope) are returned unrouted so the planner can record them as
    infeasible rather than silently dropping them.
    """
    out: List[Composition] = []
    for composition in space.compositions():
        present = {a.name: books[a.name] for a, _ in composition.groups
                   if a.name in books}
        if len(present) == len(composition.groups):
            routing = routing_for(present, kernels)
            composition = Composition(groups=composition.groups,
                                      routing=routing)
        out.append(composition)
    return out
