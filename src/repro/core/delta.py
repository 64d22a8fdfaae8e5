"""Network deltas: incremental evolution of a matching network.

Production networks are never rebuilt from scratch — schemas arrive and
leave while reconciliation sessions are mid-flight.  A
:class:`NetworkDelta` describes one batch of such changes (schemas and
candidate correspondences added and removed); :func:`apply_network_delta`
produces the successor :class:`~repro.core.network.MatchingNetwork`
*incrementally*: the constraint engine keeps every compiled violation
whose members all survive and re-discovers only the violations that a
change could have created, instead of re-enumerating the whole
violation hypergraph.

**The locality contract.**  Every edge added by a delta must touch an
*added* schema.  Surviving candidates therefore never gain a new way to
violate a constraint among themselves:

* one-to-one violations are graph-independent pairs within one schema
  pair — new ones must involve an added candidate;
* cycle violations need a graph cycle carrying all their members; a new
  cycle uses a new edge, a new edge touches an added schema, and only
  added candidates can span an added schema;
* declaration-style constraints (``referenced_correspondences()`` not
  ``None``) fire only when every named member is available, so a new
  firing must involve an added candidate too.

Hence *new* violations all intersect the added candidate set, and they
are found by re-running each structural constraint anchored on the
schema pairs the added candidates span: one-to-one over those pairs'
candidates, the cycle constraint over the cycles through those edges
(the full compile's kernel with anchor edges).  Constraints outside this
taxonomy fall back to a full recompile — correct, just not incremental.

The per-index mask tables are renumbered (removals shift every bit), so
the *global* engine saves re-discovery, not re-indexing; the shard layer
(:func:`repro.shard.shard_plan_delta`) is where untouched components
keep their live engines, stores and RNG streams verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from .constraints import (
    ConstraintEngine,
    CycleConstraint,
    OneToOneConstraint,
)
from .correspondence import CandidateSet, Correspondence
from .graphs import InteractionGraph
from .network import MatchingNetwork
from .schema import Schema, validate_disjoint

__all__ = ["DeltaResult", "NetworkDelta", "apply_network_delta"]


@dataclass(frozen=True)
class NetworkDelta:
    """One batch of network evolution: schemas and candidates in/out.

    Attributes
    ----------
    add_schemas:
        New :class:`Schema` objects; names must be fresh (a name removed
        in the same delta may be re-used — the old candidates touching
        it are gone either way).
    remove_schemas:
        Names of schemas to drop.  Every candidate touching a removed
        schema is removed implicitly.
    add_edges:
        New interaction-graph edges.  Each must touch an added schema
        (see the locality contract in the module docstring).
    add_candidates:
        ``(correspondence, confidence)`` pairs to append to the
        candidate set; endpoints must exist in the successor schemas and
        span an edge of the successor graph.
    remove_candidates:
        Existing candidates to drop explicitly.
    rescore:
        In-place matcher-confidence updates for *existing* candidates —
        ``{correspondence: score}`` (or ``(correspondence, score)``
        pairs).  Confidence is auxiliary matcher output: it never enters
        the constraint engine or the instance space, so a rescore-only
        delta patches the candidate set without recompiling the engine
        or rebuilding any shard (see :func:`apply_network_delta`'s fast
        path).  Rescoring a candidate the same delta removes (or one
        that is not a candidate at all) is an error.
    """

    add_schemas: tuple[Schema, ...] = ()
    remove_schemas: tuple[str, ...] = ()
    add_edges: tuple[tuple[str, str], ...] = ()
    add_candidates: tuple[tuple[Correspondence, float], ...] = ()
    remove_candidates: tuple[Correspondence, ...] = ()
    rescore: tuple[tuple[Correspondence, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "add_schemas", tuple(self.add_schemas))
        object.__setattr__(self, "remove_schemas", tuple(self.remove_schemas))
        object.__setattr__(
            self,
            "add_edges",
            tuple((str(a), str(b)) for a, b in self.add_edges),
        )
        object.__setattr__(
            self,
            "add_candidates",
            tuple(
                (corr, float(confidence))
                for corr, confidence in self.add_candidates
            ),
        )
        object.__setattr__(
            self, "remove_candidates", tuple(self.remove_candidates)
        )
        rescore = self.rescore
        if isinstance(rescore, Mapping):
            rescore = rescore.items()
        object.__setattr__(
            self,
            "rescore",
            tuple((corr, float(score)) for corr, score in rescore),
        )

    def is_structural(self) -> bool:
        """Whether the delta changes the candidate universe or the graph.

        Rescores are non-structural: they touch confidences only, so a
        delta that carries nothing else keeps the engine, the instance
        space, and every shard byte-identical.
        """
        return bool(
            self.add_schemas
            or self.remove_schemas
            or self.add_edges
            or self.add_candidates
            or self.remove_candidates
        )

    def is_empty(self) -> bool:
        """Whether applying this delta is a complete no-op."""
        return not (self.is_structural() or self.rescore)


@dataclass(frozen=True)
class DeltaResult:
    """Everything downstream layers need to consume a delta incrementally.

    Attributes
    ----------
    delta:
        The applied :class:`NetworkDelta`.
    network:
        The successor network (incrementally compiled engine).
    index_map:
        Old engine index → new engine index for every *surviving*
        candidate.  Monotone: survivors keep their relative order and
        additions are appended, which is what lets the shard layer wrap
        carried shard stores in remapped index tuples without touching
        their contents.
    removed_indices:
        Old-space indices of removed candidates, ascending.
    removed_correspondences:
        The removed candidates themselves (a candidate removed and
        re-added in one delta counts as removed — its feedback must be
        retracted, the re-added twin starts fresh).
    added_indices:
        New-space indices of added candidates, ascending.
    new_violation_masks:
        New-space masks of the violations that were *not* carried over
        from the old engine — the touched region the shard planner must
        recompute; every one of them intersects the added candidates.
    rescored_indices:
        New-space indices of the candidates whose confidence the delta
        patched in place, ascending.
    """

    delta: NetworkDelta
    network: MatchingNetwork
    index_map: Mapping[int, int]
    removed_indices: tuple[int, ...]
    removed_correspondences: frozenset[Correspondence] = field(repr=False)
    added_indices: tuple[int, ...] = ()
    new_violation_masks: tuple[int, ...] = field(default=(), repr=False)
    rescored_indices: tuple[int, ...] = ()

    @property
    def structural(self) -> bool:
        """Whether the successor's candidate universe or engine changed.

        False exactly for rescore-only deltas: the successor then shares
        the predecessor's engine, graph and schemas verbatim, and every
        downstream layer (estimators, shard stores) may keep its state
        untouched — only the network reference moves.
        """
        return self.delta.is_structural()

    @property
    def removed_mask(self) -> int:
        """Old-space bitmask of the removed candidates."""
        mask = 0
        for index in self.removed_indices:
            mask |= 1 << index
        return mask

    @property
    def added_mask(self) -> int:
        """New-space bitmask of the added candidates."""
        mask = 0
        for index in self.added_indices:
            mask |= 1 << index
        return mask


def _incremental_engine(
    old_engine: ConstraintEngine,
    correspondences: Sequence[Correspondence],
    graph: InteractionGraph,
    removed_mask: int,
    added_corrs: Sequence[Correspondence],
) -> ConstraintEngine:
    """Recompile the engine keeping every violation among survivors.

    Carried violations are the old ones whose mask misses every removed
    bit (their members, graph edges and constraint semantics all
    survive).  New violations all intersect the added candidate set (the
    locality contract), so structural constraints are re-run only over
    the schema pairs the added candidates span — the *anchor* edges —
    and declaration-style constraints over the (cheap) explicit
    reference lists.
    """
    constraints = old_engine.constraints
    violations = []
    sources: list[list[int]] = []
    seen: dict[frozenset[Correspondence], int] = {}
    for violation, vmask, contributors in zip(
        old_engine.violations,
        old_engine.violation_masks,
        old_engine.violation_sources,
    ):
        if vmask & removed_mask:
            continue
        seen[violation.correspondences] = len(violations)
        violations.append(violation)
        sources.append(list(contributors))

    added_set = set(added_corrs)
    if added_set:
        anchors = {corr.schema_pair for corr in added_corrs}
        for position, constraint in enumerate(constraints):
            if constraint.referenced_correspondences() is not None:
                fresh = constraint.minimal_violations(correspondences, graph)
            elif isinstance(constraint, CycleConstraint):
                # A new cycle violation has an added member, which spans
                # an anchor edge of the violation's schema cycle: the full
                # compile's kernel, enumerating only cycles through those
                # edges instead of the network's dense cycle space.
                fresh = constraint.minimal_violations(
                    correspondences, graph, through=anchors
                )
            else:
                # OneToOneConstraint: conflicting pairs share a schema pair.
                fresh = constraint.minimal_violations(
                    [corr for corr in correspondences if corr.schema_pair in anchors],
                    graph,
                )
            for violation in fresh:
                if not (violation.correspondences & added_set):
                    # Violations among survivors only: already carried.
                    continue
                slot = seen.get(violation.correspondences)
                if slot is None:
                    seen[violation.correspondences] = len(violations)
                    violations.append(violation)
                    sources.append([position])
                elif position not in sources[slot]:
                    sources[slot].append(position)

    return ConstraintEngine.from_violations(
        constraints, correspondences, violations, sources
    )


def _validated_rescore(
    network: MatchingNetwork, delta: NetworkDelta
) -> dict[Correspondence, float]:
    """The delta's rescore entries as a map, checked against ``network``."""
    rescore_map: dict[Correspondence, float] = {}
    for corr, score in delta.rescore:
        if corr in rescore_map:
            raise ValueError(f"delta rescores {corr} twice")
        if corr not in network.candidates:
            raise ValueError(
                f"delta rescores {corr} which is not a candidate"
            )
        rescore_map[corr] = score
    return rescore_map


def _rescore_only_result(
    network: MatchingNetwork,
    delta: NetworkDelta,
    rescore_map: dict[Correspondence, float],
) -> DeltaResult:
    """The fast path: patch confidences, share everything else verbatim.

    Confidence never enters the constraint engine or the instance space
    (only matchers write it and confidence-ranked selection reads it), so
    the successor reuses the predecessor's schemas, graph, constraints
    and *engine objects* — no recompilation, an identity index map, and
    nothing for the shard layer to rebuild.
    """
    candidates = CandidateSet()
    confidence_of = network.candidates.confidence
    rescored_indices: list[int] = []
    for index, corr in enumerate(network.correspondences):
        score = rescore_map.get(corr)
        if score is None:
            candidates.add(corr, confidence_of(corr))
        else:
            candidates.add(corr, score)
            rescored_indices.append(index)
    successor = MatchingNetwork.__new__(MatchingNetwork)
    successor.schemas = network.schemas
    successor._schema_by_name = network._schema_by_name
    successor.candidates = candidates
    successor.graph = network.graph
    successor.constraints = network.constraints
    successor.engine = network.engine
    return DeltaResult(
        delta=delta,
        network=successor,
        index_map=MappingProxyType(
            {index: index for index in range(len(network.correspondences))}
        ),
        removed_indices=(),
        removed_correspondences=frozenset(),
        added_indices=(),
        new_violation_masks=(),
        rescored_indices=tuple(rescored_indices),
    )


def apply_network_delta(
    network: MatchingNetwork, delta: NetworkDelta
) -> DeltaResult:
    """Apply ``delta`` to ``network``, returning the successor + mappings.

    The input network is left untouched; the successor shares the
    surviving :class:`Schema`, :class:`Correspondence` and
    :class:`~repro.core.constraints.Violation` objects, so downstream
    layers can carry state keyed on them verbatim.  A rescore-only delta
    short-circuits to :func:`_rescore_only_result` — same engine object,
    identity index map.
    """
    rescore_map = _validated_rescore(network, delta)
    if not delta.is_structural():
        return _rescore_only_result(network, delta, rescore_map)
    # ------------------------------------------------------------------
    # Schemas
    # ------------------------------------------------------------------
    removed_names = set(delta.remove_schemas)
    if len(removed_names) != len(delta.remove_schemas):
        raise ValueError("delta removes the same schema twice")
    for name in delta.remove_schemas:
        if name not in network._schema_by_name:
            raise ValueError(f"delta removes unknown schema {name!r}")
    surviving_schemas = [
        schema for schema in network.schemas if schema.name not in removed_names
    ]
    schemas = tuple(surviving_schemas) + tuple(delta.add_schemas)
    validate_disjoint(schemas)
    added_names = {schema.name for schema in delta.add_schemas}
    by_name = {schema.name: schema for schema in schemas}

    # ------------------------------------------------------------------
    # Interaction graph (edges touching a removed schema drop with it)
    # ------------------------------------------------------------------
    surviving_edges = [
        edge
        for edge in network.graph.edges
        if edge[0] not in removed_names and edge[1] not in removed_names
    ]
    for left, right in delta.add_edges:
        if left not in by_name or right not in by_name:
            raise ValueError(
                f"delta edge ({left!r}, {right!r}) references an unknown schema"
            )
        if left not in added_names and right not in added_names:
            raise ValueError(
                f"delta edge ({left!r}, {right!r}) connects two pre-existing "
                "schemas; delta edges must touch an added schema (an edge "
                "among survivors could create violations among surviving "
                "candidates, defeating incremental recompilation — rebuild "
                "the network instead)"
            )
    graph = InteractionGraph(
        nodes=[schema.name for schema in schemas],
        edges=[*surviving_edges, *delta.add_edges],
    )

    # ------------------------------------------------------------------
    # Candidates: survivors keep insertion order, additions append
    # ------------------------------------------------------------------
    old_corrs = network.correspondences
    explicit = set(delta.remove_candidates)
    unknown = explicit.difference(old_corrs)
    if unknown:
        raise ValueError(
            f"delta removes {len(unknown)} correspondence(s) that are not "
            f"candidates (e.g. {next(iter(unknown))})"
        )
    removed: list[Correspondence] = []
    removed_indices: list[int] = []
    index_map: dict[int, int] = {}
    rescored_indices: list[int] = []
    candidates = CandidateSet()
    confidence_of = network.candidates.confidence
    for old_index, corr in enumerate(old_corrs):
        if (
            corr in explicit
            or corr.source.schema in removed_names
            or corr.target.schema in removed_names
        ):
            if corr in rescore_map:
                raise ValueError(
                    f"delta rescores {corr} which it also removes"
                )
            removed.append(corr)
            removed_indices.append(old_index)
        else:
            index_map[old_index] = len(candidates)
            score = rescore_map.get(corr)
            if score is not None:
                rescored_indices.append(len(candidates))
            candidates.add(
                corr, confidence_of(corr) if score is None else score
            )

    added_corrs: list[Correspondence] = []
    added_indices: list[int] = []
    for corr, confidence in delta.add_candidates:
        if corr in candidates:
            raise ValueError(f"delta adds {corr} which is already a candidate")
        for endpoint in corr.attributes:
            schema = by_name.get(endpoint.schema)
            if schema is None:
                raise ValueError(
                    f"added candidate {corr} references unknown schema "
                    f"{endpoint.schema!r}"
                )
            if endpoint not in schema:
                raise ValueError(
                    f"added candidate {corr} references unknown attribute "
                    f"{endpoint.qualified_name!r}"
                )
        left, right = corr.schema_pair
        if not graph.has_edge(left, right):
            raise ValueError(
                f"added candidate {corr} spans schemas {left!r}/{right!r} "
                "that are not connected in the successor interaction graph"
            )
        added_indices.append(len(candidates))
        candidates.add(corr, confidence)
        added_corrs.append(corr)

    # ------------------------------------------------------------------
    # Engine: incremental when the constraint family is understood
    # ------------------------------------------------------------------
    old_engine = network.engine
    removed_mask = 0
    for index in removed_indices:
        removed_mask |= old_engine.bits[index]
    incremental = all(
        isinstance(c, (OneToOneConstraint, CycleConstraint))
        or c.referenced_correspondences() is not None
        for c in network.constraints
    )
    new_corrs = candidates.correspondences
    if incremental:
        engine = _incremental_engine(
            old_engine, new_corrs, graph, removed_mask, added_corrs
        )
    else:
        engine = ConstraintEngine(
            network.constraints, new_corrs, graph, validate=False
        )

    successor = MatchingNetwork.__new__(MatchingNetwork)
    successor.schemas = schemas
    successor._schema_by_name = by_name
    successor.candidates = candidates
    successor.graph = graph
    successor.constraints = network.constraints
    successor.engine = engine

    carried_keys = {
        violation.correspondences
        for violation, vmask in zip(
            old_engine.violations, old_engine.violation_masks
        )
        if not (vmask & removed_mask)
    }
    new_violation_masks = tuple(
        vmask
        for violation, vmask in zip(engine.violations, engine.violation_masks)
        if violation.correspondences not in carried_keys
    )
    return DeltaResult(
        delta=delta,
        network=successor,
        index_map=MappingProxyType(index_map),
        removed_indices=tuple(removed_indices),
        removed_correspondences=frozenset(removed),
        added_indices=tuple(added_indices),
        new_violation_masks=new_violation_masks,
        rescored_indices=tuple(rescored_indices),
    )
