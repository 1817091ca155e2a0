"""FliX configurations (section 4.3).

A configuration bundles a meta-document building strategy with the set of
index strategies the ISS may choose from, plus the tuning knobs both need.
The four predefined configurations are the paper's:

* **Naive** — one meta document per XML document;
* **Maximal PPO** — greedy tree-shaped partitions indexed with PPO
  (variant 1, ``single_tree=True``, keeps the whole collection in one
  forest-shaped meta document instead);
* **Unconnected HOPI** — the first two steps of HOPI's divide-and-conquer
  builder: size-bounded partitions, each indexed with HOPI;
* **Hybrid Partitions** — tree partitions with PPO where possible,
  Unconnected HOPI for the densely linked remainder.

"In our current implementation, an administrator must decide which
configuration to use" (section 4.1) — :func:`FlixConfig.recommend` is our
step toward the automatic choice the paper leaves as future work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.cache import ShardedLRUCache

#: meta-document building strategies the MDB understands (the paper's four,
#: then the section 6 comparator layout and section 7's chooser)
MDB_STRATEGIES = (
    "naive", "maximal_ppo", "unconnected_hopi", "hybrid",
    "monolithic", "auto_subcollections",
)

@dataclass(frozen=True)
class CacheConfig:
    """Result/connection-cache knobs (see ``docs/SERVING.md``).

    Attached to a configuration via :attr:`FlixConfig.cache` (or
    :meth:`FlixConfig.with_cache`); ``None`` there means no cache at all.
    The cache itself is a :class:`repro.core.cache.ShardedLRUCache`:
    ``maxsize`` bounds the total entry count, ``shards`` sets how many
    independently locked LRU shards share it (1 = exact global LRU
    order; more shards = less lock contention between query threads).
    """

    #: total cached entries across all shards (full query result lists
    #: and connection cost/test scalars alike)
    maxsize: int = 1024
    #: independently locked LRU shards (clamped to ``maxsize``)
    shards: int = 8

    def __post_init__(self) -> None:
        if self.maxsize < 1:
            raise ValueError("maxsize must be positive")
        if self.shards < 1:
            raise ValueError("shards must be positive")

    def build(self) -> ShardedLRUCache:
        """Materialize the configured :class:`ShardedLRUCache`."""
        return ShardedLRUCache(maxsize=self.maxsize, shards=self.shards)

    # ------------------------------------------------------------------
    # persistence (manifest round-trip)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CacheConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass(frozen=True)
class FlixConfig:
    """One configuration of the framework."""

    name: str
    mdb_strategy: str
    #: strategies (by registry name) the ISS may choose from, in preference order
    allowed_strategies: Tuple[str, ...]
    #: partition node budget for unconnected_hopi / hybrid
    partition_size: int = 5000
    #: maximal_ppo variant 1: a single forest meta document instead of partitions
    single_tree: bool = False
    #: auto_subcollections: minimum cosine similarity of a document's
    #: structural feature vector to a cluster leader's for it to join that
    #: subcollection (``repro.core.subcollections``)
    similarity_threshold: float = 0.75
    #: ISS budget: maximum estimated closure pairs per node before HOPI is
    #: considered too expensive and the selector falls back (section 2.2:
    #: "HOPI's size may grow large for large document sets")
    hopi_pairs_per_node_budget: float = 256.0
    #: whether the expected query load is dominated by long descendants-or-
    #: self paths (the structural-vagueness scenario of section 1.1); biases
    #: the ISS toward HOPI over APEX
    expect_long_paths: bool = True
    #: collect metrics and query traces (see ``repro.obs``); turning this
    #: off makes ``Flix.metrics()`` empty and skips all instrumentation
    #: branches, so disabled runs pay near-zero overhead
    observability: bool = True
    #: shared result/connection cache for the query phase (sharded LRU
    #: with generation-based invalidation, see ``docs/SERVING.md``);
    #: ``None`` disables caching — the classic zero-memory behaviour
    cache: Optional[CacheConfig] = None

    def __post_init__(self) -> None:
        if self.mdb_strategy not in MDB_STRATEGIES:
            raise ValueError(
                f"unknown MDB strategy {self.mdb_strategy!r}; "
                f"expected one of {MDB_STRATEGIES}"
            )
        if self.partition_size < 1:
            raise ValueError("partition_size must be positive")
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in (0, 1]")
        if not self.allowed_strategies:
            raise ValueError("at least one index strategy must be allowed")

    def with_observability(self, enabled: bool) -> "FlixConfig":
        """This configuration with observability on or off."""
        from dataclasses import replace

        return replace(self, observability=enabled)

    def with_packed(self) -> "FlixConfig":
        """This configuration, unchanged: every served index is packed
        (``docs/DATA_LAYOUT.md``) and the layout is not a choice.  Kept
        only because ``benchmarks/spine/workloads.py`` calls it; delete
        it together with those calls."""
        return self

    def with_cache(
        self, cache: Optional[CacheConfig] = None, **overrides
    ) -> "FlixConfig":
        """This configuration with the shared query cache enabled.

        With no arguments the defaults apply; keyword overrides build a
        custom :class:`CacheConfig` (``with_cache(maxsize=4096,
        shards=16)``); use :meth:`without_cache` to disable caching.
        """
        from dataclasses import replace

        if cache is None:
            cache = CacheConfig(**overrides) if overrides else CacheConfig()
        return replace(self, cache=cache)

    def without_cache(self) -> "FlixConfig":
        """This configuration with the shared query cache disabled."""
        from dataclasses import replace

        return replace(self, cache=None)

    # ------------------------------------------------------------------
    # the paper's predefined configurations
    # ------------------------------------------------------------------
    @classmethod
    def naive(cls) -> "FlixConfig":
        """One meta document per document; PPO where tree-shaped, else HOPI/APEX."""
        return cls(
            name="naive",
            mdb_strategy="naive",
            allowed_strategies=("ppo", "hopi", "apex"),
        )

    @classmethod
    def maximal_ppo(cls, single_tree: bool = False) -> "FlixConfig":
        """Greedy tree partitions, all indexed with PPO."""
        return cls(
            name="maximal_ppo" + ("_single" if single_tree else ""),
            mdb_strategy="maximal_ppo",
            allowed_strategies=("ppo",),
            single_tree=single_tree,
        )

    @classmethod
    def unconnected_hopi(cls, partition_size: int = 5000) -> "FlixConfig":
        """Size-bounded partitions, all indexed with HOPI."""
        return cls(
            name=f"unconnected_hopi_{partition_size}",
            mdb_strategy="unconnected_hopi",
            allowed_strategies=("hopi",),
            partition_size=partition_size,
        )

    @classmethod
    def hybrid(cls, partition_size: int = 5000) -> "FlixConfig":
        """Tree partitions with PPO + Unconnected HOPI for the rest."""
        return cls(
            name=f"hybrid_{partition_size}",
            mdb_strategy="hybrid",
            allowed_strategies=("ppo", "hopi", "apex"),
            partition_size=partition_size,
        )

    @classmethod
    def monolithic(cls, strategy: str) -> "FlixConfig":
        """The whole collection as one meta document indexed with
        ``strategy`` — how the paper's section 6 comparators are built:
        "an extended version of HOPI that supports distance information
        and a database-backed implementation of APEX, both applied to the
        complete data collection"."""
        return cls(
            name=f"monolithic_{strategy}",
            mdb_strategy="monolithic",
            allowed_strategies=(strategy,),
        )

    @classmethod
    def auto_subcollections(
        cls, similarity_threshold: float = 0.75, partition_size: int = 5000
    ) -> "FlixConfig":
        """Section 7's future work: cluster the documents into homogeneous
        subcollections and lay each out under the configuration
        :meth:`recommend` derives from its own statistics."""
        return cls(
            name="auto_subcollections",
            mdb_strategy="auto_subcollections",
            allowed_strategies=("ppo", "hopi", "apex"),
            partition_size=partition_size,
            similarity_threshold=similarity_threshold,
        )

    # ------------------------------------------------------------------
    # automatic configuration (the paper's "ultimate goal", section 4.1)
    # ------------------------------------------------------------------
    @classmethod
    def recommend(
        cls,
        link_density: float,
        intra_document_links: int,
        mean_document_size: float,
        partition_size: int = 5000,
        intra_link_fraction: Optional[float] = None,
    ) -> "FlixConfig":
        """Heuristic configuration choice from collection statistics.

        Mirrors the per-configuration applicability notes of section 4.3:
        large documents whose links stay *inside* documents (the INEX
        profile) -> Naive; few links overall -> Maximal PPO; links
        everywhere -> Unconnected HOPI; mixed -> Hybrid.

        ``intra_link_fraction`` is the share of links that are
        intra-document (``None`` when unknown); it is the signal that
        distinguishes the INEX profile from a densely *inter*-linked web.
        """
        if link_density == 0.0:
            return cls.maximal_ppo()
        if (
            intra_link_fraction is not None
            and intra_link_fraction >= 0.7
            and mean_document_size >= 50
        ):
            # INEX profile: "documents are relatively large, the number of
            # inter-document links is small, and queries usually do not
            # cross document boundaries" (section 4.3)
            return cls.naive()
        if intra_document_links == 0 and link_density < 0.01:
            return cls.maximal_ppo()
        if mean_document_size > 1000 and link_density < 0.005:
            return cls.naive()
        if link_density > 0.05:
            return cls.unconnected_hopi(partition_size)
        return cls.hybrid(partition_size)

    @classmethod
    def recommend_for(cls, collection, partition_size: int = 5000) -> "FlixConfig":
        """:meth:`recommend`, fed from a collection's measured statistics.

        This is what ``Flix.build(collection)`` uses when no configuration
        is given; exposed so callers (the CLI, benchmarks) can obtain the
        recommendation and adjust knobs before building.
        """
        from repro.collection.stats import collect_statistics

        stats = collect_statistics(collection)
        return cls.recommend(
            link_density=stats.link_density,
            intra_document_links=stats.intra_document_links,
            mean_document_size=stats.mean_document_size,
            partition_size=partition_size,
            intra_link_fraction=stats.intra_link_fraction,
        )
