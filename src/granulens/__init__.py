"""granulens: granular data analysis via rough sets and Shannon entropy."""

import gc
import os
import sys

# The CLI's own process makes no BLAS call, so it starts no OpenBLAS threads unless told to.
if (sys.orig_argv[-len(sys.argv):][:1] == ["granulens.cli"]  # python -m granulens.cli
        or os.path.basename((sys.argv or [""])[0]) == "granulens"):  # the console script
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # numpy, imported below, reads it once
    gc.disable()  # collecting while it imports frees nothing it needs; cli.main() re-enables it

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
    GranularEntropyReport,
    shannon,
    joint,
    conditional,
    granular_entropy,
    per_block,
)
from .sweep import SweepPoint, SweepCurve, sweep
from .reduction import ReductResult, greedy_reduct, entropy_rank
from .harness import (
    ModelRun,
    EvalReport,
    ComparisonVerdict,
    load_run,
    evaluate_run,
    compare_runs,
)
from .curvefile import read_curve, curve_to_csv
from .svg import emit_svg

__version__ = "0.1.0"
