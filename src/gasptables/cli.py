"""Command-line front end: grouped subcommands, three output styles.

Everything prints to stdout.  --format picks json (machines), tsv (plotting
pipelines, header line first) or pretty (terse human rendering, the
default).  Exit codes: 0 success, 1 domain failure (invalid table, exhausted
retries, bad file), 2 usage error.  GASPTABLES_SEED supplies the default
seed wherever randomness is involved.  A new command is one row in
_commands(), its handler, and one line in the tests' EVERY_COMMAND.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import MatrixDims, full_report, lower_bounds
from .costmodel import CostExponents, asymptotic_compare, concrete_costs
from .degree_table import DegreeTable, DomainError
from .equivalence import canonical, normal, squeeze, transpose
from .gasp import (GaspParams, construct, fixed_prefix_table, n_of_r, optimal_r, reduction_statistic,
                   score_closed_form)
from .ilp import build_blp, build_ilp_fixed, emit_lp_text
from .search import exhaustive, exhaustive_fixed_prefix, greedy
from .sdmm import build_instance, decode, plain_product, security_check


@dataclass(frozen=True)
class PlotSeries:
    """One named curve; y values are ints or exact Fractions."""

    name: str
    rows: tuple[tuple[int, object], ...]

    def __post_init__(self):
        xs = [x for x, _ in self.rows]
        if xs != sorted(set(xs)):
            raise DomainError(f"series {self.name!r}: x values must be increasing")


def figure1a_series() -> list[PlotSeries]:
    """Server count vs collusion level at K = L = 4, one curve per chain length."""
    out = []
    for r in range(1, 5):
        rows = tuple(
            (t, n_of_r(GaspParams(4, 4, t, r)))
            for t in range(1, 11)
            if r <= min(4, t)
        )
        out.append(PlotSeries(name=f"r={r}", rows=rows))
    out.append(PlotSeries(name="ineq1", rows=tuple((t, lower_bounds(4, 4, t).ineq1) for t in range(1, 11))))
    return out


def figure1b_series(n_max: int) -> list[PlotSeries]:
    """Ratio to the lower bound n^4 + 3n^2 at K = L = T = n^2, exact rationals."""
    if n_max < 2:
        raise DomainError("n_max must be at least 2")
    rows_1, rows_n, rows_b = [], [], []
    for n in range(2, n_max + 1):
        k = n * n
        denom = n ** 4 + 3 * n ** 2
        rows_1.append((n, Fraction(n_of_r(GaspParams(k, k, k, 1)), denom)))
        rows_n.append((n, Fraction(n_of_r(GaspParams(k, k, k, n)), denom)))
        rows_b.append((n, Fraction(n_of_r(GaspParams(k, k, k, k)), denom)))
    return [
        PlotSeries(name="r=1", rows=tuple(rows_1)),
        PlotSeries(name="r=n", rows=tuple(rows_n)),
        PlotSeries(name="r=n^2", rows=tuple(rows_b)),
    ]


def _json_default(o):
    if isinstance(o, Fraction):
        return str(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return format(float(v), ".10g")
    if v is None:
        return ""
    return str(v)


def _flat(v) -> str:
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_flat(i) for i in v) + "]"
    if isinstance(v, Fraction):
        return str(v)
    if v is None:
        return "null"
    return _cell(v)


def _is_nested(v) -> bool:
    return isinstance(v, dict) or (
        isinstance(v, list) and any(isinstance(i, (dict, list)) for i in v)
    )


def _pretty_lines(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if _is_nested(v) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_pretty_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_flat(v)}")
    else:
        for item in obj:
            if _is_nested(item) and item:
                lines.append(f"{pad}-")
                lines.extend(_pretty_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_flat(item)}")
    return lines


def _kv_tsv(payload: dict) -> str:
    lines = ["key\tvalue"]
    for k, v in payload.items():
        if _is_nested(v):
            lines.append(f"{k}\t{json.dumps(v, sort_keys=True, default=_json_default)}")
        else:
            lines.append(f"{k}\t{_flat(v) if isinstance(v, (list, tuple)) else _cell(v)}")
    return "\n".join(lines)


def _payload(obj):
    """A result as JSON-ready data: records become dicts in field order."""
    if is_dataclass(obj):
        return {f.name: _payload(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [_payload(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _payload(v) for k, v in obj.items()}
    return obj


def _series_tsv(series: list[PlotSeries]) -> str:
    xs = sorted({x for s in series for x, _ in s.rows})
    maps = [dict(s.rows) for s in series]
    lines = ["\t".join(["x"] + [s.name for s in series])]
    for x in xs:
        cells = [str(x)] + [_cell(m[x]) if x in m else "" for m in maps]
        lines.append("\t".join(cells))
    return "\n".join(lines)


def _emit(args, payload: dict, tsv: Optional[str] = None, pretty: Optional[str] = None) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=_json_default))
    elif args.format == "tsv":
        print(tsv if tsv is not None else _kv_tsv(payload))
    else:
        print(pretty if pretty is not None else "\n".join(_pretty_lines(payload)))


def _parse(text: str, n: int, what: str, convert=int) -> tuple:
    noun, bad = ("integers", "non-integer") if convert is int else ("rationals", "bad rational")
    parts = text.split(",")
    if len(parts) != n:
        raise DomainError(f"{what} needs {n} comma-separated {noun}, got {text!r}")
    try:
        return tuple(convert(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{what}: {bad} in {text!r}") from None


def _entry_bound(text: str):
    """--entry-bound's value: N on both sides (an int stays an int), or A,B for alpha and beta."""
    try:
        return int(text) if "," not in text else _parse(text, 2, "--entry-bound")
    except ValueError:  # _parse's DomainError too
        raise argparse.ArgumentTypeError(f"expected N or A,B as integers, got {text!r}") from None


def _load_table(path: str) -> DegreeTable:
    source = "standard input" if path == "-" else path
    try:
        with contextlib.nullcontext(sys.stdin) if path == "-" else open(path) as fh:
            data = json.load(fh)
    except RecursionError:
        raise DomainError(f"table JSON in {source} is nested too deeply") from None
    except json.JSONDecodeError as e:
        raise DomainError(f"table JSON in {source} is not valid JSON: {e}") from None
    return DegreeTable.from_json_dict(data)


def _params(args) -> GaspParams:
    if args.big:
        return GaspParams.big(args.K, args.L, args.T)
    return GaspParams(K=args.K, L=args.L, T=args.T, r=args.r)


def _handle_gasp(args) -> None:
    if args.action == "optimal-r":
        r_star, n, trace = optimal_r(args.K, args.L, args.T)
        _emit(args, {"r_star": r_star, "N": n, "trace": _payload(trace)})
        return
    p = _params(args)
    if args.action == "construct":
        _emit(args, {**_payload(construct(p)), "transposed": p.transposed})
    elif args.action == "score":
        sb = score_closed_form(p)
        _emit(args, {**_payload(sb), "total": sb.total})
    else:
        n = n_of_r(p)
        payload = {"K": args.K, "L": args.L, "T": args.T, "r": p.r, "N": n}
        _emit(args, payload, pretty=str(n))


def _handle_table(args) -> None:
    t = _load_table(args.infile)
    if args.action == "squeeze":
        out, steps = squeeze(t)
        payload = {"table": _payload(out), "steps": _payload(steps)} if args.trace else _payload(out)
    elif args.action == "normal":
        payload = _payload(normal(t))
    else:
        payload = _payload(canonical(t))
    if args.outfile:
        with open(args.outfile, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        _emit(args, payload)


def _handle_bounds(args) -> None:
    dims = None
    if args.dims:
        dims = MatrixDims(*_parse(args.dims, 4, "--dims"))
    rep = full_report(args.K, args.L, args.T, dims)
    payload = _payload(rep)
    e = payload.pop("threshold_exponent")
    # printed as "q**e - 2": the power itself can have billions of digits
    threshold = None if dims is None else f"{dims.q}**{e} - 2"
    _emit(args, {**payload, "best": rep.best, "operational_threshold": threshold})


def _handle_search(args) -> None:
    if args.action == "exhaustive":
        if args.budget is not None and not args.fixed_prefix:
            raise DomainError("--budget applies to --fixed-prefix only")
        if args.entry_bound is not None and args.fixed_prefix:
            raise DomainError("--entry-bound applies to the full census only, not --fixed-prefix")
        if args.fixed_prefix:
            res = exhaustive_fixed_prefix(args.K, args.L, args.T, budget=args.budget)
        else:
            res = exhaustive(args.K, args.L, args.T, entry_bound=args.entry_bound)
        _emit(args, _payload(res))
    elif args.action == "greedy":
        g = greedy(args.K, args.L, args.T, budget=args.budget, beam_width=args.beam_width)
        table = fixed_prefix_table(args.K, args.L, args.T, g.alpha_s)
        payload = {
            "alpha_s": list(g.alpha_s),
            "N": g.n,
            "nodes": g.nodes,
            "budget_exhausted": g.budget_exhausted,
            "table": _payload(table),
        }
        _emit(args, payload)
    else:
        if args.kind == "census" and args.tight_link:
            raise DomainError("--tight-link applies to --kind fixed only")
        if args.kind == "fixed" and args.entry_bound is not None:
            raise DomainError("--entry-bound applies to --kind census only")
        if args.kind == "fixed":
            model = build_ilp_fixed(args.K, args.L, args.T, tight_link=args.tight_link)
        else:
            model = build_blp(args.K, args.L, args.T, args.entry_bound)
        text = emit_lp_text(model)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _handle_sdmm(args) -> None:
    a, b, c = _parse(args.dims, 3, "--dims")
    if args.table:
        table = _load_table(args.table)
    else:
        missing = [n for n in ("K", "L", "T", "r") if getattr(args, n) is None]
        if missing:
            raise DomainError(f"need --table or all of --K --L --T --r (missing {missing})")
        p = GaspParams(args.K, args.L, args.T, args.r)
        # GaspParams puts the larger of K, L first; swap the table back so A
        # is still cut into K row blocks and B into L column blocks.
        table = transpose(construct(p)) if p.transposed else construct(p)
    seed = args.seed
    rng = random.Random(f"data:{seed}")
    a_mat = tuple(tuple(rng.randrange(1 << 16) for _ in range(b)) for _ in range(a))
    b_mat = tuple(tuple(rng.randrange(1 << 16) for _ in range(c)) for _ in range(b))
    inst = build_instance(a_mat, b_mat, table, base_q=args.q, seed=seed)
    result = decode(inst)
    matches = result.product == plain_product(inst)
    rep = security_check(inst, mode=args.security, seed=seed)
    if args.dump_shares:
        os.makedirs(args.dump_shares, exist_ok=True)
        for i, (f_sh, g_sh) in enumerate(inst.shares):
            doc = {
                "server": i,
                "point": inst.points[i],
                "f": [list(r) for r in f_sh],
                "g": [list(r) for r in g_sh],
                "response": [list(r) for r in inst.responses[i]],
            }
            with open(os.path.join(args.dump_shares, f"server_{i:03d}.json"), "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
    payload = {
        "q": inst.field.q,
        "n_servers": inst.n_servers,
        "points": list(inst.points),
        "dims": [a, b, c],
        "table": _payload(table),
        "share_shape_f": [a // table.K, b],
        "share_shape_g": [b, c // table.L],
        "response_shape": [a // table.K, c // table.L],
        "decode_matches_plain": matches,
        "security": {
            "total_subsets": rep.total_subsets,
            "checked": rep.checked,
            "exhaustive": rep.exhaustive,
            "ok": rep.ok,
            "failures": len(rep.failures),
        },
    }
    _emit(args, payload)


def _handle_cost(args) -> None:
    if args.action == "compare":
        vals = _parse(args.exponents, 6, "--exponents", Fraction)
        outer, inner, wins = asymptotic_compare(CostExponents(*vals))
        _emit(args, {"outer_exponent": outer, "inner_exponent": inner, "outer_wins": wins})
    else:
        rep = concrete_costs(
            *_parse(args.dims, 3, "--dims"),
            *_parse(args.blocks, 3, "--blocks"),
            *_parse(args.servers, 2, "--servers"),
        )
        _emit(args, {**_payload(rep), "total_outer": rep.total_outer, "total_inner": rep.total_inner})


def _handle_figure(args) -> None:
    if args.which == "1a":
        if args.n_max is not None:
            raise DomainError("--n-max applies to figure 1b only")
        series = figure1a_series()
    else:
        series = figure1b_series(20 if args.n_max is None else args.n_max)
    tsv = _series_tsv(series)
    _emit(args, {"series": _payload(series)}, tsv=tsv, pretty=tsv)


def _handle_stats(args) -> None:
    mean = reduction_statistic(args.k_max, args.t_max)
    triples = args.t_max * args.k_max * (args.k_max + 1) // 2
    payload = {
        "k_max": args.k_max,
        "t_max": args.t_max,
        "triples": triples,
        "mean": mean,
        "mean_decimal": format(float(mean), ".6f"),
    }
    _emit(args, payload, pretty=f"{mean} = {float(mean):.6f}")


def _commands() -> list[tuple]:
    """One row per leaf command: (path, help, handler, arguments after --format).  An argument
    is a (flag, add_argument keywords) pair, or (None, the pairs of a required either-or group)."""
    klt = [("--K", dict(type=int, required=True, help="row blocks of A")),
           ("--L", dict(type=int, required=True, help="column blocks of B")),
           ("--T", dict(type=int, required=True, help="colluding servers tolerated"))]
    r_or_big = (None, [("--r", dict(type=int, help="chain length")),
                       ("--big", dict(action="store_true", help="use r = min(K, T)"))])
    entry_bound = ("--entry-bound", dict(type=_entry_bound, default=None, help="override the census"
                                         " entry bound: N on both sides, or A,B for alpha and beta"))
    table_io = [("--in", dict(dest="infile", default="-", help="table JSON file, - for stdin")),
                ("--out", dict(dest="outfile", default=None, help="write JSON here instead of stdout"))]
    return [
        ("gasp construct", "emit the table as JSON", _handle_gasp, [*klt, r_or_big]),
        ("gasp score", "closed-form score breakdown", _handle_gasp, [*klt, r_or_big]),
        ("gasp n", "server count for given chain length", _handle_gasp, [*klt, r_or_big]),
        ("gasp optimal-r", "best chain length", _handle_gasp, klt),
        ("table squeeze", "close removable gaps", _handle_table,
         [*table_io, ("--trace", dict(action="store_true", help="include the step list"))]),
        ("table normal", "sorted, zero-based, gcd-reduced form", _handle_table, table_io),
        ("table canonical", "lex-least of normal form and its negation", _handle_table, table_io),
        ("bounds", "lower bounds and entry bounds", _handle_bounds,
         [*klt, ("--dims", dict(help="a,b,c,q to include the operational threshold"))]),
        ("search exhaustive", "full census within entry bounds", _handle_search, [
            *klt, entry_bound,
            ("--fixed-prefix", dict(action="store_true", help="only search the alpha suffix")),
            ("--budget", dict(type=int, default=None, help="cap on tables examined"))]),
        ("search greedy", "greedy alpha-suffix search", _handle_search, [
            *klt, ("--budget", dict(type=int, default=None, help="node limit")),
            ("--beam-width", dict(type=int, default=None, help="cap branches per node"))]),
        ("search emit-lp", "write an .lp model", _handle_search, [
            *klt, ("--kind", dict(choices=("fixed", "census"), default="fixed")),
            entry_bound,
            ("--tight-link", dict(action="store_true", help="per-column linking rows")),
            ("--out", dict(default=None, help="output file (stdout if omitted)"))]),
        ("sdmm run", "simulate one multiplication", _handle_sdmm, [
            *[(flag, dict(type=int, default=None)) for flag in ("--K", "--L", "--T", "--r")],
            ("--dims", dict(required=True, help="a,b,c matrix dimensions")),
            ("--q", dict(type=int, default=2, help="minimum field size")),
            # argparse runs a string default through type= only when --seed is absent, so a
            # malformed GASPTABLES_SEED is a usage error (exit 2).  Read when the parser is built.
            ("--seed", dict(type=int, default=os.environ.get("GASPTABLES_SEED") or "0")),
            ("--table", dict(default=None, help="table JSON file overriding --K/--L/--T/--r")),
            ("--dump-shares", dict(default=None, metavar="DIR", help="write per-server share files")),
            ("--security", dict(choices=("auto", "all", "sampled"), default="auto"))]),
        ("cost compare", "asymptotic exponents", _handle_cost,
         [("--exponents", dict(required=True, help="e_a,e_b,e_c,e_k,e_l,e_m as rationals"))]),
        ("cost concrete", "exact costs for given sizes", _handle_cost, [
            ("--dims", dict(required=True, help="a,b,c")), ("--blocks", dict(required=True, help="K,L,M")),
            ("--servers", dict(required=True, help="N_outer,N_inner"))]),
        ("figure", "plot data for the two figures", _handle_figure, [
            ("which", dict(choices=("1a", "1b"))),
            ("--n-max", dict(type=int, dest="n_max", help="figure 1b only: largest n (default 20)"))]),
        ("stats", "candidate-set reduction statistic", _handle_stats, [
            ("--k-max", dict(type=int, default=300, dest="k_max")),
            ("--t-max", dict(type=int, default=300, dest="t_max"))]),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasptables",
        description="Degree tables for secure distributed matrix multiplication.",
    )
    group_help = {
        "gasp": "construct tables, evaluate closed forms",
        "table": "squeeze / normalize / canonicalize tables",
        "search": "optimal-table searches and LP export",
        "sdmm": "run the protocol end to end",
        "cost": "communication-cost comparisons",
    }
    leaves = {"": parser.add_subparsers(dest="command", required=True)}
    for path, help_text, handler, arguments in _commands():
        group, _, name = path.rpartition(" ")
        if group not in leaves:
            p_group = leaves[""].add_parser(group, help=group_help[group])
            leaves[group] = p_group.add_subparsers(dest="action", required=True)
        leaf = leaves[group].add_parser(name, help=help_text)
        leaf.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty",
                          help="output rendering (default pretty)")
        for flag, kw in arguments:
            if flag is None:
                either = leaf.add_mutually_exclusive_group(required=True)
                for member, member_kw in kw:
                    either.add_argument(member, **member_kw)
            else:
                leaf.add_argument(flag, **kw)
        leaf.set_defaults(handler=handler, leaf=leaf)
    return parser


def cmd_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # subparsers pass unknown arguments up; the leaf reports them with its usage
            args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as e:
        return int(e.code or 0)
    try:
        args.handler(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
