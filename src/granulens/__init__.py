"""granulens: granular data analysis via rough sets and Shannon entropy."""

from .errors import GranulensError, DataError, UniverseMismatchError
from .table import (
    MISSING,
    AttributeSpec,
    InformationTable,
    GranulationScheme,
    DiscreteView,
    Partition,
    load_table,
    discretize,
    partition_by,
)
from .rough import (
    ConceptSet,
    RoughApproximation,
    RegionReport,
    approximate,
    regions,
    dependency,
)
from .entropy import (
    Distribution,
    GranularEntropyReport,
    shannon,
    joint,
    conditional,
    granular_entropy,
    per_block,
)
from .sweep import SweepPoint, SweepCurve, ConvergenceSummary, sweep, convergence_summary
from .reduction import ReductResult, greedy_reduct, exhaustive_reducts, entropy_rank
from .harness import (
    ModelRun,
    EvalReport,
    ComparisonVerdict,
    load_run,
    evaluate_run,
    compare_runs,
)
from .curvefile import write_curve, read_curve, curve_to_csv
from .svg import emit_svg

__version__ = "0.1.0"
