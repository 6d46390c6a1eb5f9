"""Command-line surface: stats, quantize, pareto, baseline, oracle.

All JSON outputs carry ``"schema": 1`` and a run manifest (subcommand,
input, configuration echo, tool version, timestamp). CSV written to a file
gets the manifest as a JSON sidecar next to it. Exit codes are stable:

    0  success
    1  a result JSON cannot hold (a non-finite number)
    2  ingestion failure
    3  configuration error (bad flags, lambda < 0, U2 on categorical data)
    4  size cap exceeded (oracle)
    5  infeasible constraint (theta or k out of reach)
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

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
from .graph import maximin_information
from .greedy import LagrangianConfig, Problem, run
from .ingest import DEFAULT_MISSING, load_csv
from .oracle import oracle_min
from .pareto import frontier_csv_rows, sweep, sweeney_baseline
from .quantize import (
    CodewordPolicy,
    Quantization,
    UtilityChoice,
    UtilityKind,
    utility,
)

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


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="CSV file with the records")
    p.add_argument("--s", dest="s_column", help="sensitive column (name or 0-based index)")
    p.add_argument("--x", dest="x_column", help="public column (name or 0-based index)")
    p.add_argument(
        "--missing",
        action="append",
        default=None,
        help="missing-value sentinel; repeatable (default: -9, empty, ?)",
    )
    p.add_argument("--no-header", action="store_true", help="file has no header row")
    p.add_argument("--delimiter", default=",", help="field delimiter (default ,)")
    p.add_argument(
        "--x-numeric",
        action="store_true",
        help="fail on non-numeric public cells instead of going categorical",
    )
    p.add_argument(
        "--pairs",
        help='inline joint range, e.g. "s1:x1,s1:x2,s2:x1" (no file needed)',
    )
    p.add_argument(
        "--x-values",
        help='inline numeric values for X ids, e.g. "x1=0.2,x2=0.1"',
    )


def _load_joint_range(args) -> tuple[JointRange, Optional[dict], dict]:
    """Returns (joint_range, stats_dict_or_None, input_descriptor)."""
    if args.pairs and args.input:
        raise ConfigurationError("give either --pairs or --input, not both")
    if args.pairs:
        pairs = []
        for chunk in args.pairs.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                s_id, x_id = chunk.split(":")
            except ValueError:
                raise ConfigurationError(f"bad --pairs entry {chunk!r}; expected s:x")
            pairs.append((s_id.strip(), x_id.strip()))
        x_values = None
        if args.x_values:
            x_values = {}
            for chunk in args.x_values.split(","):
                chunk = chunk.strip()
                if not chunk:
                    continue
                try:
                    x_id, value = chunk.split("=")
                    x_values[x_id.strip()] = float(value)
                except ValueError:
                    raise ConfigurationError(f"bad --x-values entry {chunk!r}")
        jr = JointRange.from_id_pairs(pairs, x_values)
        return jr, None, {"pairs": args.pairs}
    if not args.input:
        raise ConfigurationError("an input is required: --input FILE or --pairs")
    if args.s_column is None or args.x_column is None:
        raise ConfigurationError("--input needs --s and --x columns")
    jr, stats = load_csv(
        args.input,
        args.s_column,
        args.x_column,
        missing=tuple(args.missing) if args.missing else DEFAULT_MISSING,
        has_header=not args.no_header,
        delimiter=args.delimiter,
        require_numeric_x=args.x_numeric,
    )
    return jr, stats.to_dict(), {"file": str(args.input), "s": args.s_column, "x": args.x_column}


def _manifest(subcommand: str, input_desc: dict, config: dict) -> dict:
    return {
        "subcommand": subcommand,
        "input": input_desc,
        "config": config,
        "tool": "privquant",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _utility_choice(name: str) -> UtilityChoice:
    if name == "u1":
        return UtilityChoice.u1()
    if name == "u2":
        return UtilityChoice.u2()
    raise ConfigurationError(f"unknown utility {name!r}; use u1 or u2")


def _policy(name: str) -> CodewordPolicy:
    try:
        return CodewordPolicy(name)
    except ValueError:
        raise ConfigurationError(f"unknown codeword policy {name!r}")


def _problem(name: str) -> Problem:
    try:
        return Problem(name)
    except ValueError:
        raise ConfigurationError(f"unknown problem/algorithm {name!r}")


def _quantization_json(jr: JointRange, q: Quantization) -> dict:
    clusters = []
    for pos, members in enumerate(q.clusters):
        entry = {
            "id": jr.x_symbols[min(members)].id,
            "members": list(jr.x_ids(members)),
        }
        if q.codewords is not None:
            entry["codeword"] = q.codewords[pos]
        clusters.append(entry)
    return {"clusters": clusters}


def _measures_json(jr: JointRange, q: Quantization, u: Optional[UtilityChoice]) -> dict:
    out = {
        "h0_s": h0(jr.n_s),
        "h0_x": h0(jr.n_x),
        "b0": b0(jr, q),
        "l0": l0(jr, q),
        "i0_forward": i0_forward(jr, q),
        "maximin_information": maximin_information(jr, q),
        "k_anonymity_level": min_range_size(jr, q),
    }
    if u is not None:
        out["utility"] = utility(jr, q, u)
    return out


def _trace_json(jr: JointRange, trace) -> list[dict]:
    rows = []
    for e in trace:
        rows.append(
            {
                "t": e.t,
                "clusters": [list(jr.x_ids(c)) for c in e.quantization.clusters],
                "lagrangian": e.lagrangian,
                "delta_l": e.delta_l,
                "merged": [
                    [jr.x_symbols[a].id, jr.x_symbols[b].id] for a, b in e.merged
                ],
                "component_count": e.component_count,
                "utility": e.utility_value,
            }
        )
    return rows


def _emit(payload: dict, out: Optional[str]) -> None:
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        # Finite inputs can still overflow, e.g. a distortion between huge values.
        raise PrivQuantError("a result is not a finite number; JSON cannot hold it") from None
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _parse_quantization_file(jr: JointRange, path: str) -> list[set[int]]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"quantization file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"quantization file is not valid JSON: {exc}")
    node = data.get("quantization", data)
    raw_clusters = node.get("clusters") if isinstance(node, dict) else None
    if raw_clusters is None:
        raise ConfigurationError("quantization JSON needs a 'clusters' list")
    index_by_id = {sym.id: i for i, sym in enumerate(jr.x_symbols)}
    clusters = []
    for entry in raw_clusters:
        members = entry["members"] if isinstance(entry, dict) else entry
        try:
            clusters.append({index_by_id[m] for m in members})
        except KeyError as exc:
            raise ConfigurationError(f"unknown X id in quantization file: {exc}")
    return clusters


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_stats(args) -> int:
    jr, stats_dict, input_desc = _load_joint_range(args)
    if stats_dict is None:
        from .ingest import stats as _stats

        records = [
            (jr.s_symbols[s].id, jr.x_symbols[x].id) for s, x in sorted(jr.pairs)
        ]
        stats_dict = _stats(jr, records).to_dict()
    payload = {
        "schema": 1,
        "manifest": _manifest("stats", input_desc, {}),
        "stats": stats_dict,
    }
    _emit(payload, args.out)
    return 0


def _cmd_quantize(args) -> int:
    jr, _, input_desc = _load_joint_range(args)
    u = _utility_choice(args.utility)
    policy = _policy(args.codeword)
    config = {
        "algorithm": args.algorithm,
        "lambda": args.lam,
        "utility": args.utility,
        "codeword": args.codeword,
    }
    payload = {"schema": 1, "manifest": _manifest("quantize", input_desc, config)}
    if args.apply_quantization:
        clusters = _parse_quantization_file(jr, args.apply_quantization)
        q = Quantization.from_clusters(jr, clusters, policy)
        if u.kind is UtilityKind.U2_MAX_DISTORTION and q.codewords is None:
            raise ConfigurationError("u2 needs numeric values on every X symbol")
        payload["quantization"] = _quantization_json(jr, q)
        payload["measures"] = _measures_json(jr, q, u)
    else:
        cfg = LagrangianConfig(args.lam, u, policy)
        result = run(jr, _problem(args.algorithm), cfg)
        payload["quantization"] = _quantization_json(jr, result.quantization)
        payload["measures"] = _measures_json(jr, result.quantization, u)
        payload["trace"] = _trace_json(jr, result.trace)
        payload["termination"] = result.termination.value
        payload["rejected_delta_l"] = result.rejected_delta_l
        if result.decomposition is not None:
            payload["decomposition"] = [
                list(jr.x_ids(b)) for b in result.decomposition.blocks
            ]
    _emit(payload, args.out)
    return 0


def _parse_grid(args) -> Optional[list[float]]:
    if args.lambdas:
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
        if count < 1 or lo < 0 or hi < lo:
            raise ConfigurationError("grid needs count >= 1 and 0 <= min <= max")
        if count == 1:
            return [lo]
        if spacing == "lin":
            step = (hi - lo) / (count - 1)
            return [lo + i * step for i in range(count)]
        if spacing == "log":
            if lo <= 0:
                raise ConfigurationError("log spacing needs min > 0")
            ratio = (hi / lo) ** (1.0 / (count - 1))
            return [lo * ratio**i for i in range(count)]
        raise ConfigurationError(f"unknown grid spacing {spacing!r}")
    return None


def _cmd_pareto(args) -> int:
    jr, _, input_desc = _load_joint_range(args)
    u = _utility_choice(args.utility)
    grid = _parse_grid(args)
    if grid is not None and any(lam < 0 for lam in grid):
        raise ConfigurationError("lambda values must be non-negative")
    frontier = sweep(
        jr,
        _problem(args.algorithm),
        u,
        lambda_grid=grid,
        policy=_policy(args.codeword),
        include_trace_states=not args.terminal_only,
        dataset_id=input_desc.get("file"),
    )
    config = {
        "algorithm": args.algorithm,
        "utility": args.utility,
        "codeword": args.codeword,
        "grid": grid if grid is not None else "default(65)",
    }
    manifest = _manifest("pareto", input_desc, config)
    if args.format == "json":
        payload = {
            "schema": 1,
            "manifest": manifest,
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
        _emit(payload, args.out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerows(frontier_csv_rows(frontier))
    if args.out:
        Path(args.out).write_text(buf.getvalue(), encoding="utf-8")
        sidecar = Path(args.out).with_suffix(Path(args.out).suffix + ".manifest.json")
        sidecar.write_text(json.dumps({"schema": 1, "manifest": manifest}, indent=2) + "\n")
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _cmd_baseline(args) -> int:
    jr, _, input_desc = _load_joint_range(args)
    q = sweeney_baseline(jr, args.k, policy=_policy(args.codeword))
    payload = {
        "schema": 1,
        "manifest": _manifest("baseline", input_desc, {"k": args.k, "codeword": args.codeword}),
        "quantization": _quantization_json(jr, q),
        "measures": _measures_json(jr, q, None),
        "k_anonymous": min_range_size(jr, q) >= args.k,
    }
    _emit(payload, args.out)
    return 0


def _cmd_oracle(args) -> int:
    jr, _, input_desc = _load_joint_range(args)
    u = _utility_choice(args.utility)
    if (args.lam is None) == (args.theta is None):
        raise ConfigurationError("oracle needs exactly one of --lambda or --theta")
    lam = args.lam if args.lam is not None else 0.0
    cfg = LagrangianConfig(lam, u, _policy(args.codeword))
    result = oracle_min(jr, _problem(args.problem), cfg, theta=args.theta)
    payload = {
        "schema": 1,
        "manifest": _manifest(
            "oracle",
            input_desc,
            {
                "problem": args.problem,
                "lambda": args.lam,
                "theta": args.theta,
                "utility": args.utility,
                "codeword": args.codeword,
            },
        ),
        "value": result.value,
        "optima_count": result.optima_count,
        "quantization": _quantization_json(jr, result.quantization),
        "measures": _measures_json(jr, result.quantization, u),
    }
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="privquant", description=__doc__)
    parser.add_argument("--version", action="version", version=f"privquant {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics after ingestion")
    _add_input_args(p)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("quantize", help="run one greedy quantization")
    _add_input_args(p)
    p.add_argument("--algorithm", default="l0", help="l0 | istar | l0-zero-istar")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--utility", default="u1", help="u1 | u2")
    p.add_argument("--codeword", default="centroid", help="centroid | representative")
    p.add_argument(
        "--apply-quantization",
        help="skip the algorithm; evaluate the quantization in this JSON file",
    )
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_quantize)

    p = sub.add_parser("pareto", help="sweep lambda and emit the Pareto frontier")
    _add_input_args(p)
    p.add_argument("--algorithm", default="l0", help="l0 | istar | l0-zero-istar")
    p.add_argument("--utility", default="u1", help="u1 | u2")
    p.add_argument("--codeword", default="centroid", help="centroid | representative")
    p.add_argument("--lambdas", help="explicit comma-separated lambda list")
    p.add_argument("--grid", help="count:min:max[:log|lin] lambda grid")
    p.add_argument(
        "--terminal-only",
        action="store_true",
        help="collect only each run's final quantization, not every trace state",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write frontier here instead of stdout")
    p.set_defaults(fn=_cmd_pareto)

    p = sub.add_parser("baseline", help="generalization-and-suppression k-anonymity")
    _add_input_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--codeword", default="centroid", help="centroid | representative")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_baseline)

    p = sub.add_parser("oracle", help="exact optimum by full partition enumeration")
    _add_input_args(p)
    p.add_argument("--problem", default="l0", help="l0 | istar | l0-zero-istar")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--utility", default="u1", help="u1 | u2")
    p.add_argument("--codeword", default="centroid", help="centroid | representative")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except PrivQuantError as exc:
        for err_type, code in _EXIT_BY_ERROR:
            if isinstance(exc, err_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
