"""Command-line surface: granulens <subcommand> over the library.

Exit codes: 0 success, 1 usage error, 2 data/file error or a failed write
to stdout. Human-readable summaries go to stdout; machine output is written
only to --out/--svg paths, atomically (temp file + rename). The library
returns text; this is the one module that reads or writes a file.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import re
import stat
import sys
from dataclasses import asdict, fields, is_dataclass
from fractions import Fraction
from pathlib import Path

from .errors import GranulensError
from .table import load_table, discretize, partition_by, GranulationScheme
from .rough import approximate, regions, ConceptSet
from .entropy import granular_entropy, per_block
from .sweep import sweep
from .reduction import greedy_reduct, entropy_rank
from .harness import load_run, evaluate_run, compare_runs
from .curvefile import curve_to_csv, fmt
from .svg import emit_svg


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)  # a float literal (-1e-3, -inf, -nan) is a value
        self._negative_number_matcher = re.compile(
            r"(?i)-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$")

    def error(self, message):
        raise _UsageError(message)


def _json(value):
    """A record as JSON data: dataclass fields in order, str keys, sorted sets, 9-decimal floats."""
    if isinstance(value, (float, Fraction)):  # scalars first: most of a large report's values
        return float(f"{float(value):.9f}")
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {str(key): _json(item) for key, item in value.items()}
    return sorted(value) if isinstance(value, frozenset) else value


def _attrs_list(text: str) -> list[str]:
    return [a for a in (s.strip() for s in text.split(",")) if a]


def _bits_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a bits level B or range A..B, got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="granulens",
                     description="Granular entropy / rough-set data and model evaluation")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def table_cmd(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("table", help="input CSV (header row; empty or '?' = missing)")
        p.add_argument("--decision", required=True, help="decision column name")
        p.add_argument("--out", help="write the command's report to this path")
        p.set_defaults(func=func)
        return p

    table_cmd("inspect", "summarize a table's attributes and decision classes", cmd_inspect)

    p = table_cmd("rough", "lower/upper/boundary approximation report", cmd_rough)
    p.add_argument("--attrs", required=True, help="comma-separated attribute subset")
    p.add_argument("--bits", type=int, default=0, help="bits for numeric attributes")
    p.add_argument("--class", dest="cls", help="single decision class to approximate")

    p = table_cmd("entropy", "granule-wise entropy report for one partition", cmd_entropy)
    p.add_argument("--attrs", required=True)
    p.add_argument("--bits", type=int, default=0)

    p = table_cmd("sweep", "entropy/boundary curve over a bits range", cmd_sweep)
    p.add_argument("--attrs", required=True)
    p.add_argument("--bits", required=True, type=_bits_range,
                   help="range A..B (or single level)")
    p.add_argument("--svg", help="write an SVG chart of the curve")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="what --out holds: the curve as CSV (default) or JSON")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; has no effect")

    p = table_cmd("reduce", "greedy attribute reduct and information-gain ranking", cmd_reduce)
    p.add_argument("--bits", type=int, required=True,
                   help="bits level fixing the discrete view reduction runs on")

    p = table_cmd("evaluate", "evaluate one model-run CSV against the table", cmd_evaluate)
    p.add_argument("run", help="run CSV: object_index,predicted[,granule]")

    p = table_cmd("compare", "rank model runs: accuracy band, then granular metrics", cmd_compare)
    p.add_argument("runs", nargs="+", help="run CSV files")
    p.add_argument("--tolerance", type=float, default=0.005,
                   help="accuracy band below the best run (default 0.005)")
    p.add_argument("--rank-by", choices=["boundary-first", "entropy-first"],
                   default="boundary-first",
                   help="metric order inside the band (default boundary-first)")
    return parser


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:  # by its given name: as a Path, '' would be the directory '.'
        return fh.read()


def _load(args):
    return load_table(_read(args.table), args.decision, table_id=Path(args.table).name)


def write_atomic(path: str, data: str) -> None:
    """Write to a temp file beside the target, then rename: no partial outputs. As a
    plain write does, write through a symlink, create a file 0o666 under the umask and
    keep an existing file's permission bits; refuse a target that is neither a file nor
    a directory, or ''. An OSError names ``path``, never the temp file, which is removed."""
    if not path:  # as open('') does: realpath('') would be the working directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    real = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(real), f".granulens-tmp-{os.urandom(8).hex()}")
    try:
        mode = os.stat(real).st_mode if os.path.exists(real) else None
        if mode is not None and stat.S_IFMT(mode) not in (stat.S_IFREG, stat.S_IFDIR):
            raise OSError(errno.EINVAL, "Not a regular file")
        with open(tmp, "x", encoding="utf-8") as fh:  # created 0o666 under the umask
            if mode is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            fh.write(data)
        os.replace(tmp, real)  # onto a directory: [Errno 21] Is a directory
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _emit_json(args, payload) -> None:  # payload() is built only when --out is given
    if args.out is not None:
        write_atomic(args.out, json.dumps(payload(), indent=2) + "\n")


def cmd_inspect(args, table) -> None:
    classes = sorted(set(table.decision_labels), key=str)
    print(f"{table.table_id or args.table}: n={table.n}, "
          f"{len(table.condition_attributes)} condition attributes, "
          f"decision {table.decision!r} with {len(classes)} classes")
    for a in table.attributes:
        line = f"  {a.name}: {a.kind}"
        if a.observed_range is not None:
            line += f" range [{a.observed_range[0]:g}, {a.observed_range[1]:g}]"
        if a.name == table.decision:
            line += " (decision)"
        print(line)
    _emit_json(args, lambda: {"table_id": table.table_id, "n": table.n, "decision": table.decision,
                              "classes": [str(c) for c in classes],
                              "attributes": [asdict(a) for a in table.attributes]})


def _partition_for(args, table):
    attrs = _attrs_list(args.attrs)
    scheme = GranulationScheme.uniform(table, args.bits, attrs=attrs or None)
    return attrs, partition_by(discretize(table, scheme), attrs)


def cmd_rough(args, table) -> None:
    attrs, part = _partition_for(args, table)
    labels = table.decision_labels
    if args.cls is not None:
        members = frozenset(i for i, v in enumerate(labels) if str(v) == args.cls)
        approx = approximate(part, ConceptSet(members, table.n))
        print(f"class {args.cls!r} under attrs={','.join(attrs) or '(none)'} "
              f"bits={args.bits}: |lower|={len(approx.lower)} "
              f"|upper|={len(approx.upper)} |boundary|={len(approx.boundary)} "
              f"alpha={fmt(float(approx.accuracy_alpha))}")
        print(f"  lower={sorted(approx.lower)}")
        print(f"  boundary={sorted(approx.boundary)}")
        _emit_json(args, lambda: {"class": args.cls, **_json(approx)})
    else:
        rep = regions(part, labels)
        print(f"regions under attrs={','.join(attrs) or '(none)'} bits={args.bits}: "
              f"gamma={fmt(float(rep.gamma))} "
              f"boundary_fraction={fmt(float(rep.boundary_fraction))}")
        for cls, approx in rep.per_class.items():
            print(f"  class {cls!r}: |lower|={len(approx.lower)} "
                  f"|boundary|={len(approx.boundary)} "
                  f"alpha={fmt(float(approx.accuracy_alpha))}")
        _emit_json(args, lambda: _json(rep))


def cmd_entropy(args, table) -> None:
    attrs, part = _partition_for(args, table)
    rep = granular_entropy(part, table.decision_codes)
    print(f"granular entropy under attrs={','.join(attrs) or '(none)'} "
          f"bits={args.bits}: blocks={part.block_count} "
          f"conditional_bits={fmt(rep.conditional_bits)} "
          f"boundary_fraction={fmt(float(rep.boundary_fraction))} "
          f"normalized={fmt(rep.normalized_conditional)}")
    _emit_json(args, lambda: {"per_block": _json(per_block(part, table.decision_codes)),
                              **_json(rep)})


def cmd_sweep(args, table) -> None:
    attrs = _attrs_list(args.attrs)
    lo, hi = args.bits
    curve = sweep(table, attrs, lo, hi)
    print(f"sweep attrs={','.join(attrs) or '(none)'} bits {lo}..{hi}: "
          f"{len(curve.points)} points"
          + (" (saturated early)" if curve.saturated else ""))
    for p in curve.points:
        print(f"  b={p.bits_level}: blocks={p.block_count} "
              f"H={fmt(p.conditional_bits)} BF={fmt(p.boundary_fraction)}")
    last = curve.points[-1]
    print(f"  violations={curve.monotonicity_violations} "
          f"terminal H={fmt(last.conditional_bits)} terminal BF={fmt(last.boundary_fraction)}")
    if args.format == "json":
        _emit_json(args, lambda: _json(curve.points))
    elif args.out is not None:
        write_atomic(args.out, curve_to_csv(curve))
    if args.svg is not None:
        write_atomic(args.svg, emit_svg(curve))


def cmd_reduce(args, table) -> None:
    view = discretize(table, GranulationScheme.uniform(table, args.bits))
    result = greedy_reduct(view, table.decision_codes)
    ranking = entropy_rank(view, table.decision_codes)
    print(f"reduct at bits={args.bits}: selected={result.selected} "
          f"gamma={fmt(float(result.gamma_selected))} "
          f"(full {fmt(float(result.gamma_full))})")
    for step in result.trace:
        print(f"  + {step.attribute}: gamma={fmt(float(step.gamma_after))} "
              f"H(D|P)={fmt(step.conditional_bits_after)}")
    print("information gain ranking:")
    for name, gain in ranking:
        print(f"  {name}: {fmt(gain)}")
    _emit_json(args, lambda: {**_json(result), "entropy_rank": _json(ranking)})


def _evaluate_file(table, path: str):
    return evaluate_run(table, load_run(_read(path), table, run_id=Path(path).stem))


def cmd_evaluate(args, table) -> None:
    rep = _evaluate_file(table, args.run)
    print(f"run {rep.run_id}: accuracy={fmt(rep.accuracy)} "
          f"H(D|model)={fmt(rep.model_conditional_bits)} "
          f"BF={fmt(rep.model_boundary_fraction)} gamma={fmt(rep.model_gamma)} "
          f"blocks={rep.block_count}"
          + (" (fallback: predicted-label partition)"
             if rep.used_fallback_partition else ""))
    _emit_json(args, lambda: _json(rep))


def cmd_compare(args, table) -> None:
    reports = [_evaluate_file(table, path) for path in args.runs]
    verdict = compare_runs(reports, tolerance=args.tolerance, rank_by=args.rank_by)
    print(f"selected: {verdict.selected} (tolerance {verdict.tolerance_used})")
    for r in verdict.ranked:
        band = "in band" if r.candidate else "outside band"
        print(f"  {r.run_id}: acc={fmt(r.accuracy)} BF={fmt(r.boundary_fraction)} "
              f"H={fmt(r.conditional_bits)} blocks={r.block_count} ({band})")
    _emit_json(args, lambda: dict(selected=verdict.selected, tolerance_used=verdict.tolerance_used,
                                  ranked=_json(verdict.ranked)))


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        args.func(args, _load(args))
        return 0
    except (GranulensError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """Run the command, flush stdout and stderr, and end the process without the interpreter's
    teardown, so no atexit handler runs. Programs that run a command in process call ``run_cli``."""
    gc.freeze()  # later collections skip what the imports made: none of it is freed
    gc.enable()
    code = run_cli(sys.argv[1:])
    try:
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:  # a full disk or a closed pipe
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)  # every output file is closed and renamed by now


if __name__ == "__main__":
    main()
