"""Command-line surface: stats, quantize, pareto, baseline, oracle.

All JSON outputs carry ``"schema": 1`` and a run manifest (subcommand,
input, configuration echo, tool version, timestamp). CSV written to a file
gets the manifest as a JSON sidecar next to it. Exit codes are stable:

    0  success
    1  a result JSON cannot hold (a non-finite number), or an internal error
    2  ingestion failure
    3  configuration error (bad flags, lambda < 0, U2 on categorical data,
       an unwritable --out, a --delimiter that is not one character, an
       unreadable or malformed --apply-quantization file, a CSV-only flag
       with --pairs, a NaN --theta, a --grid count or a --lambdas list over
       MAX_GRID_COUNT)
    4  size cap exceeded (oracle)
    5  infeasible constraint (theta or k out of reach)
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

from . import __version__
from .core import JointRange, b0, h0, i0_forward, l0, min_range_size
from .errors import (
    ConfigurationError,
    ContractViolation,
    InfeasibleError,
    IngestError,
    PrivQuantError,
    SizeLimitError,
)
from .ingest import DEFAULT_MISSING, load_csv, stats
from .quantize import (
    CodewordPolicy,
    LagrangianConfig,
    Problem,
    Quantization,
    UtilityChoice,
    UtilityKind,
    utility,
)

# The algorithm modules (graph, greedy, oracle, pareto) are imported by the
# code that runs them, so a subcommand loads only what it uses.

_EXIT_BY_ERROR = (
    (IngestError, 2),
    (ConfigurationError, 3),
    (ContractViolation, 3),
    (SizeLimitError, 4),
    (InfeasibleError, 5),
)


class _Parser(argparse.ArgumentParser):
    # CLI usage errors are configuration errors, not argparse's default exit 2
    # (which this tool reserves for ingestion failures).
    def error(self, message):
        raise ConfigurationError(message)


def _choices(enum_type) -> list[str]:
    return [member.value for member in enum_type]


#: Every flag of every subcommand: name -> ``add_argument`` keywords.
_FLAGS = {
    "--input": dict(help="CSV file with the records"),
    "--s": dict(dest="s_column", help="sensitive column (name or 0-based index)"),
    "--x": dict(dest="x_column", help="public column (name or 0-based index)"),
    "--missing": dict(
        action="append", help="missing-value sentinel; repeatable (default: -9, empty, ?)"
    ),
    "--no-header": dict(action="store_true", help="file has no header row"),
    "--delimiter": dict(help="field delimiter (default ,)"),
    "--x-numeric": dict(
        action="store_true",
        help="fail on non-numeric public cells instead of going categorical",
    ),
    "--pairs": dict(help='inline joint range, e.g. "s1:x1,s1:x2,s2:x1" (no file needed)'),
    "--x-values": dict(help='numeric values for the X ids of --pairs, e.g. "x1=0.2,x2=0.1"'),
    "--algorithm": dict(default="l0", choices=_choices(Problem)),
    "--problem": dict(default="l0", choices=_choices(Problem)),
    "--lambda": dict(dest="lam", type=float, default=0.0),
    "--theta": dict(
        type=float, help="least utility; write a negative one in exponent form as --theta=-1e-3"
    ),
    "--utility": dict(default="u1", choices=_choices(UtilityKind)),
    "--codeword": dict(default="centroid", choices=_choices(CodewordPolicy)),
    "--k": dict(type=int, required=True),
    "--apply-quantization": dict(
        help="skip the algorithm; evaluate the quantization in this JSON file"
    ),
    "--lambdas": dict(help="explicit comma-separated lambda list"),
    "--grid": dict(help="count:min:max[:log|lin] lambda grid"),
    "--terminal-only": dict(
        action="store_true",
        help="collect only each run's final quantization, not every trace state",
    ),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(help="write the output here instead of stdout"),
}
#: Flags that only ``--input`` reads: name -> argparse dest (None or False when unset).
_CSV_FLAGS = {
    "--s": "s_column", "--x": "x_column", "--missing": "missing", "--no-header": "no_header",
    "--delimiter": "delimiter", "--x-numeric": "x_numeric",
}
_INPUT_FLAGS = ("--input", *_CSV_FLAGS, "--pairs", "--x-values")
#: Flags whose values the manifest echoes as its ``config``, in declaration order.
_ECHOED_FLAGS = frozenset(
    ("--algorithm", "--problem", "--lambda", "--theta", "--utility", "--codeword", "--k")
)


def _entries(text: str, flag: str, form: str, value=str) -> list[tuple[str, object]]:
    """The entries of a comma-separated inline flag; ``form`` is one entry,
    such as ``s:x``, whose middle character separates key from value."""
    entries = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if chunk:
            try:
                key, raw = chunk.split(form[1])
                entries.append((key.strip(), value(raw.strip())))
            except ValueError:
                raise ConfigurationError(f"bad {flag} entry {chunk!r}; expected {form}") from None
    return entries


def _load_joint_range(args) -> tuple[JointRange, dict, dict]:
    """Returns (joint_range, dataset stats, input_descriptor)."""
    if args.pairs and args.input:
        raise ConfigurationError("give either --pairs or --input, not both")
    if args.x_values and args.input:
        raise ConfigurationError("--x-values goes with --pairs; --input reads X from the file")
    if args.pairs:
        given = [f for f, dest in _CSV_FLAGS.items() if getattr(args, dest) not in (None, False)]
        if given:
            raise ConfigurationError(f"{', '.join(given)} go with --input; --pairs reads no CSV")
        pairs = _entries(args.pairs, "--pairs", "s:x")
        x_values = None
        if args.x_values:
            x_values = dict(_entries(args.x_values, "--x-values", "x=number", float))
        jr = JointRange.from_id_pairs(pairs, x_values)
        return jr, stats(jr, pairs).to_dict(), {"pairs": args.pairs}
    if not args.input:
        raise ConfigurationError("an input is required: --input FILE or --pairs")
    if args.s_column is None or args.x_column is None:
        raise ConfigurationError("--input needs --s and --x columns")
    jr, dataset_stats = load_csv(
        args.input,
        args.s_column,
        args.x_column,
        missing=tuple(args.missing) if args.missing else DEFAULT_MISSING,
        has_header=not args.no_header,
        delimiter="," if args.delimiter is None else args.delimiter,
        require_numeric_x=args.x_numeric,
    )
    input_desc = {"file": args.input, "s": args.s_column, "x": args.x_column}
    return jr, dataset_stats.to_dict(), input_desc


def _release_json(jr: JointRange, q: Quantization, u: Optional[UtilityChoice]) -> dict:
    """The ``quantization`` and ``measures`` blocks of a released quantization."""
    from .graph import maximin_information

    clusters = []
    for pos, members in enumerate(q.clusters):
        entry = {"id": jr.x_symbols[min(members)].id, "members": list(jr.x_ids(members))}
        if q.codewords is not None:
            entry["codeword"] = q.codewords[pos]
        clusters.append(entry)
    measures = {
        "h0_s": h0(jr.n_s),
        "h0_x": h0(jr.n_x),
        "b0": b0(jr, q),
        "l0": l0(jr, q),
        "i0_forward": i0_forward(jr, q),
        "maximin_information": maximin_information(jr, q),
        "k_anonymity_level": min_range_size(jr, q),
    }
    if u is not None:
        measures["utility"] = utility(jr, q, u)
    return {"quantization": {"clusters": clusters}, "measures": measures}


def _trace_json(jr: JointRange, trace) -> list[dict]:
    return [
        {
            "t": e.t,
            "clusters": [list(jr.x_ids(c)) for c in e.quantization.clusters],
            "lagrangian": e.lagrangian,
            "delta_l": e.delta_l,
            "merged": [[jr.x_symbols[a].id, jr.x_symbols[b].id] for a, b in e.merged],
            "component_count": e.component_count,
            "utility": e.utility_value,
        }
        for e in trace
    ]


def _emit(payload: dict, out: Optional[str]) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        # Finite inputs can still overflow, e.g. a distortion between huge values.
        raise PrivQuantError("a result is not a finite number; JSON cannot hold it") from None
    if out:
        _write(Path(out), text + "\n")
    else:
        print(text)


def _write(path: Path, text: str) -> None:
    """Write an output file; an unwritable ``--out`` is a configuration error."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror}") from None


def _read_clusters(jr: JointRange, path: str) -> list[set[int]]:
    """Clusters of X indices from a ``quantize`` output or a bare ``{"clusters": ...}``."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read quantization file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigurationError(f"quantization file is not UTF-8 text: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"quantization file is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigurationError(f"quantization file nests too deeply to parse: {path}") from None
    node = data.get("quantization", data) if isinstance(data, dict) else None
    raw_clusters = node.get("clusters") if isinstance(node, dict) else None
    if not isinstance(raw_clusters, list):
        raise ConfigurationError("quantization JSON needs a 'clusters' list")
    index_by_id = {sym.id: i for i, sym in enumerate(jr.x_symbols)}
    clusters = []
    for entry in raw_clusters:
        if isinstance(entry, dict):
            if "members" not in entry:
                raise ConfigurationError("quantization file cluster has no 'members' key")
            entry = entry["members"]
        if not isinstance(entry, list):
            raise ConfigurationError(f"quantization file cluster is not a list: {entry!r}")
        for member in entry:
            if not isinstance(member, str) or member not in index_by_id:
                raise ConfigurationError(f"unknown X id in quantization file: {member!r}")
        clusters.append({index_by_id[member] for member in entry})
    return clusters


# ---------------------------------------------------------------------------
# Subcommands: each returns the output after the manifest, a JSON object or
# CSV text.
# ---------------------------------------------------------------------------


def _cmd_stats(args, jr: JointRange, dataset_stats: dict, config: dict) -> dict:
    return {"stats": dataset_stats}


def _cmd_quantize(args, jr: JointRange, dataset_stats: dict, config: dict) -> dict:
    from .greedy import run

    u = UtilityChoice(UtilityKind(args.utility))
    policy = CodewordPolicy(args.codeword)
    if args.apply_quantization:
        clusters = _read_clusters(jr, args.apply_quantization)
        return _release_json(jr, Quantization.from_clusters(jr, clusters, policy), u)
    result = run(jr, Problem(args.algorithm), LagrangianConfig(args.lam, u, policy))
    body = {
        **_release_json(jr, result.quantization, u),
        "trace": _trace_json(jr, result.trace),
        "termination": result.termination.value,
        "rejected_delta_l": result.rejected_delta_l,
    }
    if result.decomposition is not None:
        body["decomposition"] = [list(jr.x_ids(b)) for b in result.decomposition.blocks]
    return body


def _parse_grid(args) -> Optional[list[float]]:
    from .pareto import MAX_GRID_COUNT, geometric_grid

    if args.lambdas and args.grid:
        raise ConfigurationError("give either --lambdas or --grid, not both")
    if args.lambdas:  # sweep caps the list's length
        try:
            return [float(tok) for tok in args.lambdas.split(",") if tok.strip()]
        except ValueError:
            raise ConfigurationError(f"bad --lambdas list: {args.lambdas!r}")
    if args.grid:
        parts = args.grid.split(":")
        if len(parts) not in (3, 4):
            raise ConfigurationError("--grid wants count:min:max[:log|lin]")
        try:
            count, lo, hi = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError:
            raise ConfigurationError(f"bad --grid spec: {args.grid!r}")
        spacing = parts[3] if len(parts) == 4 else "log"
        if not 1 <= count <= MAX_GRID_COUNT or lo < 0 or hi < lo:
            raise ConfigurationError(f"grid needs 1 <= count <= {MAX_GRID_COUNT}, 0 <= min <= max")
        if spacing not in ("lin", "log"):
            raise ConfigurationError(f"unknown grid spacing {spacing!r}")
        if count == 1:
            return [lo]
        if spacing == "lin":
            step = (hi - lo) / (count - 1)
            return [lo + i * step for i in range(count)]
        if lo <= 0:
            raise ConfigurationError("log spacing needs min > 0")
        return geometric_grid(lo, hi, count)
    return None


def _cmd_pareto(args, jr: JointRange, dataset_stats: dict, config: dict) -> Union[dict, str]:
    from .pareto import frontier_csv_rows, sweep

    grid = _parse_grid(args)
    frontier = sweep(
        jr,
        Problem(args.algorithm),
        UtilityChoice(UtilityKind(args.utility)),
        lambda_grid=grid,
        policy=CodewordPolicy(args.codeword),
        include_trace_states=not args.terminal_only,
    )
    config["grid"] = grid if grid is not None else "default(65)"
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(frontier_csv_rows(frontier))
        return buf.getvalue()
    return {
        "degenerate": frontier.degenerate,
        "u2_floor": frontier.u2_floor,
        "points": [
            {
                "lambda": p.lam,
                "leakage_raw": p.leakage_raw,
                "leakage_norm": p.leakage_norm,
                "utility_raw": p.utility_raw,
                "loss_norm": p.loss_norm,
                "clusters": [list(jr.x_ids(c)) for c in p.quantization.clusters],
            }
            for p in frontier.points
        ],
    }


def _cmd_baseline(args, jr: JointRange, dataset_stats: dict, config: dict) -> dict:
    from .pareto import sweeney_baseline

    release = _release_json(jr, sweeney_baseline(jr, args.k, CodewordPolicy(args.codeword)), None)
    return {**release, "k_anonymous": release["measures"]["k_anonymity_level"] >= args.k}


def _cmd_oracle(args, jr: JointRange, dataset_stats: dict, config: dict) -> dict:
    from .oracle import oracle_min

    if (args.lam is None) == (args.theta is None):
        raise ConfigurationError("oracle needs exactly one of --lambda or --theta")
    u = UtilityChoice(UtilityKind(args.utility))
    lam = args.lam if args.lam is not None else 0.0
    cfg = LagrangianConfig(lam, u, CodewordPolicy(args.codeword))
    result = oracle_min(jr, Problem(args.problem), cfg, theta=args.theta)
    return {
        "value": result.value,
        "optima_count": result.optima_count,
        **_release_json(jr, result.quantization, u),
    }


#: name -> (handler, help, flags besides the input flags and --out, default overrides)
_COMMANDS = {
    "stats": (_cmd_stats, "dataset statistics after ingestion", (), {}),
    "quantize": (
        _cmd_quantize,
        "run one greedy quantization",
        ("--algorithm", "--lambda", "--utility", "--codeword", "--apply-quantization"),
        {},
    ),
    "pareto": (
        _cmd_pareto,
        "sweep lambda and emit the Pareto frontier",
        ("--algorithm", "--utility", "--codeword", "--lambdas", "--grid", "--terminal-only",
         "--format"),
        {},
    ),
    "baseline": (
        _cmd_baseline, "generalization-and-suppression k-anonymity", ("--k", "--codeword"), {}
    ),
    "oracle": (
        _cmd_oracle,
        "exact optimum by partition enumeration; --theta skips what cannot meet it",
        ("--problem", "--lambda", "--theta", "--utility", "--codeword"),
        {"lam": None},  # unset unless given: oracle takes --lambda or --theta
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="privquant", description=__doc__)
    parser.add_argument("--version", action="version", version=f"privquant {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        echoed = []
        for flag in (*_INPUT_FLAGS, *flags, "--out"):
            action = p.add_argument(flag, **_FLAGS[flag])
            if flag in _ECHOED_FLAGS:
                echoed.append((flag[2:], action.dest))
        p.set_defaults(handler=handler, echoed=echoed, **defaults)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        jr, dataset_stats, input_desc = _load_joint_range(args)
        config = {key: getattr(args, dest) for key, dest in args.echoed}
        # JSON holds no infinity: an infinite value (--theta=-inf) is echoed as its text.
        config.update([(k, str(v)) for k, v in config.items() if v in (math.inf, -math.inf)])
        body = args.handler(args, jr, dataset_stats, config)
        manifest = {
            "subcommand": args.command,
            "input": input_desc,
            "config": config,
            "tool": "privquant",
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        head = {"schema": 1, "manifest": manifest}
        if isinstance(body, dict):
            _emit({**head, **body}, args.out)
        elif args.out:
            _write(Path(args.out), body)
            _emit(head, args.out + ".manifest.json")
        else:
            sys.stdout.write(body)
        return 0
    except PrivQuantError as exc:
        row = getattr(exc, "row", None)  # an IngestError's 1-based row, when known
        print(f"error: {exc}" + ("" if row is None else f" (row {row})"), file=sys.stderr)
        return next((code for kind, code in _EXIT_BY_ERROR if isinstance(exc, kind)), 1)
    except Exception as exc:  # a fault of privquant itself; python -X dev shows its traceback
        if sys.flags.dev_mode:
            raise
        print(f"error: internal error: {type(exc).__name__}: {exc}".replace("\n", " "),
              file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
