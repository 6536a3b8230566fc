"""The Section 6 experiment drivers run end to end through the runner."""

from __future__ import annotations

import math

from repro.experiments import figures, runner


def test_tiny_memory_sweep_yields_rows_for_both_methods():
    """One tiny-tier DBLP sweep: data sample, edge and subgraph queries."""
    runner.clear_caches()
    try:
        config = figures.base_config("dblp", "tiny")
        sweep = runner.run_memory_sweep(config, runner.SCENARIO_DATA, include_subgraphs=True)
        assert sweep.dataset == "dblp-tiny"
        assert len(sweep.points) >= 2
        budgets = [point.memory_bytes for point in sweep.points]
        assert budgets == sorted(budgets)
        for point in sweep.points:
            assert set(point.cells) == {runner.METHOD_GLOBAL, runner.METHOD_GSKETCH}
            for cell in point.cells.values():
                for result, count in (
                    (cell.edge_result, config.num_edge_queries),
                    (cell.subgraph_result, config.num_subgraph_queries),
                ):
                    assert result.query_count == count
                    # Count-Min never underestimates: relative errors are >= 0.
                    assert math.isfinite(result.average_relative_error)
                    assert result.average_relative_error >= 0.0
        table = figures._accuracy_table(sweep, "smoke", "error")
        assert len(table.rows) == len(sweep.points)
    finally:
        runner.clear_caches()
