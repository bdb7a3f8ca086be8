"""Shared experiment infrastructure."""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.driver import SimOptions, SimResult
from repro.sim.stats import format_result_table
from repro.sim.sweep import ProgressCallback, sweep
from repro.telemetry import span
from repro.trace.container import Trace
from repro.workloads import all_workloads, get_workload


@dataclass(frozen=True)
class ExperimentSpec:
    """Identity and provenance of one reproduced artefact."""

    id: str
    title: str
    paper_artifact: str  #: what this reconstructs (table/figure role)
    description: str


@dataclass
class ExperimentResult:
    """Rows regenerating one table/figure."""

    spec: ExperimentSpec
    columns: List[str]
    rows: List[dict]
    notes: str = ""

    def format(self) -> str:
        text = format_result_table(
            self.rows, self.columns,
            title=f"[{self.spec.id}] {self.spec.title}",
        )
        if self.notes:
            text += f"\n\n{self.notes}"
        return text

    def column(self, name: str) -> list:
        return [row.get(name) for row in self.rows]

    def numeric_metrics(self) -> Dict[str, float]:
        """Flatten numeric cells into ``<row-key>.<column>`` metrics.

        The row key is the first column's value (workload name, config
        label, ...); non-numeric, boolean and NaN cells are dropped.
        This is the diffable surface the run-history store records for
        an experiment — key stability matters more than completeness.
        """
        metrics: Dict[str, float] = {}
        key_column = self.columns[0] if self.columns else None
        for index, row in enumerate(self.rows):
            row_key = (
                str(row.get(key_column, index)) if key_column else index
            )
            for column in self.columns[1:]:
                value = row.get(column)
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                if value != value:  # NaN
                    continue
                metrics[f"{row_key}.{column}"] = float(value)
        return metrics


def suite_workloads(workloads: Optional[List[str]] = None):
    """The workloads an experiment runs over (default: whole suite)."""
    if workloads is None:
        return all_workloads()
    return [get_workload(name) for name in workloads]


def suite_traces(
    scale: str = "small",
    hyperblocks: bool = True,
    workloads: Optional[List[str]] = None,
    config=None,
) -> Dict[str, Trace]:
    """Traces for the suite, via the on-disk cache."""
    with span("traces", scale=scale):
        return {
            w.name: w.trace(
                scale=scale, hyperblocks=hyperblocks, config=config
            )
            for w in suite_workloads(workloads)
        }


@dataclass
class SuiteAggregate:
    """Suite-total counters accumulated across one option's results."""

    mispredictions: int = 0
    branches: int = 0
    squashed: int = 0

    def add(self, result: SimResult) -> None:
        self.mispredictions += result.mispredictions
        self.branches += result.branches
        self.squashed += result.squashed

    @property
    def rate(self) -> float:
        return self.mispredictions / self.branches if self.branches else 0.0

    @property
    def squash_coverage(self) -> float:
        return self.squashed / self.branches if self.branches else 0.0


def suite_option_aggregates(
    traces: Dict[str, Trace],
    labeled_options: Dict[str, SimOptions],
    factory: Callable,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> Dict[str, SuiteAggregate]:
    """Suite-total stats per labeled option, via one (parallel) sweep.

    Runs ``factory`` (a fresh predictor per point) over every trace for
    every option in ``labeled_options`` and folds the per-trace results
    into one :class:`SuiteAggregate` per label.
    """
    labels = list(labeled_options)
    options_list = [labeled_options[label] for label in labels]
    results = sweep(
        traces,
        {"p": factory},
        options_list,
        workers=workers,
        progress=progress,
    )
    with span("aggregate"):
        aggregates = {label: SuiteAggregate() for label in labels}
        # Results come back trace-major with one factory, so the option
        # (and hence label) cycles with period len(options_list).
        for i, result in enumerate(results):
            aggregates[labels[i % len(options_list)]].add(result)
    return aggregates


def geometric_mean(values: List[float]) -> float:
    """Geometric mean, tolerating zeros by flooring at 1e-6."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= max(value, 1e-6)
    return product ** (1.0 / len(values))


def arithmetic_mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
