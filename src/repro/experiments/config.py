"""Experiment configuration shared by the figure drivers and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import (
    require_in_range,
    require_positive,
    require_positive_int,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of an accuracy experiment on one dataset.

    Attributes:
        dataset: registered dataset name (see
            :func:`repro.datasets.registry.available_datasets`).
        seed: master seed; dataset generation, sampling, query generation and
            sketch hashing all derive from it deterministically.
        sample_fraction: fraction of stream elements reservoir-sampled into
            the data sample (the paper uses ~5% for DBLP and GTGraph).
        sample_from_first_day: if ``True``, use elements with timestamp < 1.0
            as the data sample instead of reservoir sampling — the paper's
            protocol for the IP attack data set.
        num_edge_queries: size of the edge query set ``Q_e``.
        num_subgraph_queries: size of the subgraph query set ``Q_g``.
        edges_per_subgraph: constituent edges per subgraph query (10 in the
            paper).
        workload_sample_size: number of edges in the Zipf query-workload
            sample (scenario 2 only).
        zipf_alpha: skewness of the workload sample and of Zipf query sets.
        effectiveness_threshold: the ``G0`` of Equation 14.
        depth: Count-Min depth shared by all estimators.
        fixed_memory_fraction: the single ratio used by experiments that fix
            memory and sweep something else (the paper fixes 2 MB of 8 MB,
            i.e. a mid-sweep point).
    """

    dataset: str = "dblp-tiny"
    seed: int = 7
    sample_fraction: float = 0.05
    sample_from_first_day: bool = False
    num_edge_queries: int = 2_000
    num_subgraph_queries: int = 500
    edges_per_subgraph: int = 10
    workload_sample_size: int = 20_000
    zipf_alpha: float = 1.5
    effectiveness_threshold: float = 5.0
    depth: int = 5
    fixed_memory_fraction: float = 1 / 4
    outlier_fraction: float = 0.10
    min_partition_width: int = 32
    collision_constant: float = 0.5

    def __post_init__(self) -> None:
        require_in_range(self.sample_fraction, "sample_fraction", 0.0, 1.0)
        require_positive_int(self.num_edge_queries, "num_edge_queries")
        require_positive_int(self.num_subgraph_queries, "num_subgraph_queries")
        require_positive_int(self.edges_per_subgraph, "edges_per_subgraph")
        require_positive_int(self.workload_sample_size, "workload_sample_size")
        require_positive(self.zipf_alpha, "zipf_alpha")
        require_positive(self.effectiveness_threshold, "effectiveness_threshold")
        require_positive_int(self.depth, "depth")
        require_in_range(self.fixed_memory_fraction, "fixed_memory_fraction", 0.0, 2.0)
        require_in_range(self.outlier_fraction, "outlier_fraction", 0.0, 0.9)

    def with_dataset(self, dataset: str) -> "ExperimentConfig":
        """A copy of this configuration targeting a different dataset."""
        from dataclasses import replace

        return replace(self, dataset=dataset)

    def with_alpha(self, alpha: float) -> "ExperimentConfig":
        """A copy with a different Zipf skewness factor."""
        from dataclasses import replace

        return replace(self, zipf_alpha=alpha)
