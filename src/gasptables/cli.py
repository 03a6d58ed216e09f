"""Command-line front end: grouped subcommands, three output styles.

Everything prints to stdout.  --format picks json (machines), tsv (plotting
pipelines, header line first) or pretty (terse human rendering, the
default).  Exit codes: 0 success, 1 domain failure (invalid table, exhausted
retries, bad file), 2 usage error.  GASPTABLES_SEED supplies the default
seed wherever randomness is involved.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import MatrixDims, entry_upper_bounds, full_report
from .costmodel import CostExponents, asymptotic_compare, concrete_costs
from .degree_table import DegreeTable, DomainError
from .equivalence import canonical, normal, squeeze, transpose
from .gasp import GaspParams, construct, n_of_r, optimal_r, reduction_statistic, score_closed_form
from .ilp import build_blp, build_ilp_fixed, emit_lp_text
from .search import exhaustive, exhaustive_fixed_prefix, fixed_prefix_table, greedy
from .sdmm import build_instance, decode, plain_product, security_check


@dataclass(frozen=True)
class PlotSeries:
    """One named curve; y values are ints or exact Fractions."""

    name: str
    rows: tuple[tuple[int, object], ...]

    def __post_init__(self):
        xs = [x for x, _ in self.rows]
        if xs != sorted(set(xs)):
            raise ValueError(f"series {self.name!r}: x values must be increasing")


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
    out.append(PlotSeries(name="bound", rows=tuple((t, 2 * t + 19) for t in range(1, 11))))
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
    elif isinstance(obj, list):
        for item in obj:
            if _is_nested(item) and item:
                lines.append(f"{pad}-")
                lines.extend(_pretty_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_flat(item)}")
    else:
        lines.append(f"{pad}{_flat(obj)}")
    return lines


def _kv_tsv(payload: dict) -> str:
    lines = ["key\tvalue"]
    for k, v in payload.items():
        if _is_nested(v):
            lines.append(f"{k}\t{json.dumps(v, sort_keys=True, default=_json_default)}")
        else:
            lines.append(f"{k}\t{_flat(v) if isinstance(v, (list, tuple)) else _cell(v)}")
    return "\n".join(lines)


def _series_payload(series: list[PlotSeries]) -> dict:
    return {
        "series": [
            {"name": s.name, "rows": [[x, y] for x, y in s.rows]} for s in series
        ]
    }


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


def _parse_ints(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise DomainError(f"{what} needs {n} comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise DomainError(f"{what}: non-integer in {text!r}") from None


def _parse_fractions(text: str, n: int, what: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise DomainError(f"{what} needs {n} comma-separated rationals, got {text!r}")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{what}: bad rational in {text!r}") from None


def _load_table(path: str) -> DegreeTable:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path) as fh:
            data = json.load(fh)
    return DegreeTable.from_json_dict(data)


def _params(args) -> GaspParams:
    if getattr(args, "big", False):
        return GaspParams.big(args.K, args.L, args.T)
    return GaspParams(K=args.K, L=args.L, T=args.T, r=args.r)


def _trace_dict(trace) -> dict:
    return {
        "K": trace.K,
        "L": trace.L,
        "T": trace.T,
        "phi": trace.phi,
        "mu": trace.mu,
        "x": trace.x,
        "W": list(trace.W),
        "q_w": {str(w): list(v) for w, v in sorted(trace.q_w.items())},
        "Q": list(trace.Q),
        "Q_prime": list(trace.Q_prime),
        "Q_dprime": list(trace.Q_dprime),
        "evaluated": [[r, n] for r, n in trace.evaluated],
        "r_star": trace.r_star,
        "n_star": trace.n_star,
    }


def _search_payload(res) -> dict:
    return {
        "K": res.K,
        "L": res.L,
        "T": res.T,
        "best_n": res.best_n,
        "tables_examined": res.tables_examined,
        "valid_tables": res.valid_tables,
        "entry_bound": list(res.entry_bound),
        "side_candidates": list(res.side_candidates),
        "budget_exhausted": res.budget_exhausted,
        "optima": [t.to_json_dict() for t in res.optima],
        "canonical_optima": [t.to_json_dict() for t in res.canonical_optima],
    }


def _handle_gasp(args) -> None:
    if args.action == "optimal-r":
        r_star, n, trace = optimal_r(args.K, args.L, args.T, mode=args.mode)
        _emit(args, {"r_star": r_star, "N": n, "trace": _trace_dict(trace)})
        return
    p = _params(args)
    if args.action == "construct":
        payload = construct(p).to_json_dict()
        payload["transposed"] = p.transposed
        _emit(args, payload)
    elif args.action == "score":
        sb = score_closed_form(p)
        _emit(args, {"left": sb.left, "right": sb.right, "total": sb.total})
    else:
        n = n_of_r(p)
        payload = {"K": args.K, "L": args.L, "T": args.T, "r": p.r, "N": n}
        _emit(args, payload, pretty=str(n))


def _handle_table(args) -> None:
    t = _load_table(args.infile)
    if args.action == "squeeze":
        out, steps = squeeze(t)
        payload = out.to_json_dict()
        if args.trace:
            payload = {"table": out.to_json_dict(), "steps": [asdict(s) for s in steps]}
    elif args.action == "normal":
        payload = normal(t).to_json_dict()
    else:
        payload = canonical(t).to_json_dict()
    if args.outfile:
        with open(args.outfile, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        _emit(args, payload)


def _handle_bounds(args) -> None:
    dims = None
    if args.dims:
        a, b, c, q = _parse_ints(args.dims, 4, "--dims")
        dims = MatrixDims(a=a, b=b, c=c, q=q)
    rep = full_report(args.K, args.L, args.T, dims)
    # printed as "q**e - 2": the power itself can have billions of digits
    threshold = None if dims is None else f"{dims.q}**{rep.threshold_exponent} - 2"
    payload = {
        "K": rep.K,
        "L": rep.L,
        "T": rep.T,
        "ineq1": rep.ineq1,
        "ineq2": rep.ineq2,
        "ineq2_conditions": list(rep.ineq2_conditions),
        "ineq3": rep.ineq3,
        "best": rep.best,
        "entry_bound_alpha": rep.entry_bound_alpha,
        "entry_bound_beta": rep.entry_bound_beta,
        "operational_threshold": threshold,
    }
    _emit(args, payload)


def _handle_search(args) -> None:
    if args.action == "exhaustive":
        if args.fixed_prefix:
            res = exhaustive_fixed_prefix(args.K, args.L, args.T, budget=args.budget)
        else:
            res = exhaustive(args.K, args.L, args.T, entry_bound=args.entry_bound)
        _emit(args, _search_payload(res))
    elif args.action == "greedy":
        g = greedy(args.K, args.L, args.T, budget=args.budget, beam_width=args.beam_width)
        table = fixed_prefix_table(args.K, args.L, args.T, g.alpha_s)
        payload = {
            "alpha_s": list(g.alpha_s),
            "N": g.n,
            "nodes": g.nodes,
            "budget_exhausted": g.budget_exhausted,
            "table": table.to_json_dict(),
        }
        _emit(args, payload)
    else:
        if args.kind == "fixed":
            model = build_ilp_fixed(args.K, args.L, args.T, tight_link=args.tight_link)
        else:
            bound = args.entry_bound
            if bound is None:
                bound = entry_upper_bounds(args.K, args.L, args.T)
                if bound is None:
                    raise DomainError(
                        "no proven entry bound for these parameters; pass --entry-bound"
                    )
            model = build_blp(args.K, args.L, args.T, bound)
        text = emit_lp_text(model)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _handle_sdmm(args) -> None:
    a, b, c = _parse_ints(args.dims, 3, "--dims")
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
        "table": table.to_json_dict(),
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
        vals = _parse_fractions(args.exponents, 6, "--exponents")
        outer, inner, wins = asymptotic_compare(CostExponents(*vals))
        _emit(args, {"outer_exponent": outer, "inner_exponent": inner, "outer_wins": wins})
    else:
        a, b, c = _parse_ints(args.dims, 3, "--dims")
        k, l, m = _parse_ints(args.blocks, 3, "--blocks")
        n_o, n_i = _parse_ints(args.servers, 2, "--servers")
        rep = concrete_costs(a, b, c, k, l, m, n_o, n_i)
        _emit(args, {
            "u_outer": rep.u_outer,
            "d_outer": rep.d_outer,
            "total_outer": rep.total_outer,
            "u_inner": rep.u_inner,
            "d_inner": rep.d_inner,
            "total_inner": rep.total_inner,
        })


def _handle_figure(args) -> None:
    if args.which == "1a":
        series = figure1a_series()
    else:
        series = figure1b_series(args.n_max)
    tsv = _series_tsv(series)
    _emit(args, _series_payload(series), tsv=tsv, pretty=tsv)


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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "tsv", "pretty"), default="pretty",
        help="output rendering (default pretty)",
    )
    klt = argparse.ArgumentParser(add_help=False)
    klt.add_argument("--K", type=int, required=True, help="row blocks of A")
    klt.add_argument("--L", type=int, required=True, help="column blocks of B")
    klt.add_argument("--T", type=int, required=True, help="colluding servers tolerated")

    parser = argparse.ArgumentParser(
        prog="gasptables",
        description="Degree tables for secure distributed matrix multiplication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gasp = sub.add_parser("gasp", help="construct tables, evaluate closed forms")
    gs = p_gasp.add_subparsers(dest="action", required=True)
    for act, txt in (
        ("construct", "emit the table as JSON"),
        ("score", "closed-form score breakdown"),
        ("n", "server count for given chain length"),
    ):
        pa = gs.add_parser(act, parents=[common, klt], help=txt)
        grp = pa.add_mutually_exclusive_group(required=True)
        grp.add_argument("--r", type=int, help="chain length")
        grp.add_argument("--big", action="store_true", help="use r = min(K, T)")
    po = gs.add_parser("optimal-r", parents=[common, klt], help="best chain length")
    po.add_argument("--mode", choices=("reduced", "full_scan"), default="reduced")

    p_table = sub.add_parser("table", help="squeeze / normalize / canonicalize tables")
    ts = p_table.add_subparsers(dest="action", required=True)
    for act, txt in (
        ("squeeze", "close removable gaps"),
        ("normal", "sorted, zero-based, gcd-reduced form"),
        ("canonical", "lex-least of normal form and its negation"),
    ):
        pa = ts.add_parser(act, parents=[common], help=txt)
        pa.add_argument("--in", dest="infile", default="-", help="table JSON file, - for stdin")
        pa.add_argument("--out", dest="outfile", default=None, help="write JSON here instead of stdout")
        if act == "squeeze":
            pa.add_argument("--trace", action="store_true", help="include the step list")

    p_bounds = sub.add_parser("bounds", parents=[common, klt], help="lower bounds and entry bounds")
    p_bounds.add_argument("--dims", help="a,b,c,q to include the operational threshold")

    p_search = sub.add_parser("search", help="optimal-table searches and LP export")
    ss = p_search.add_subparsers(dest="action", required=True)
    pe = ss.add_parser("exhaustive", parents=[common, klt], help="full census within entry bounds")
    pe.add_argument("--entry-bound", type=int, default=None, help="override the entry bound")
    pe.add_argument("--fixed-prefix", action="store_true", help="only search the alpha suffix")
    pe.add_argument("--budget", type=int, default=None, help="cap on tables examined")
    pg = ss.add_parser("greedy", parents=[common, klt], help="greedy alpha-suffix search")
    pg.add_argument("--budget", type=int, default=None, help="node limit")
    pg.add_argument("--beam-width", type=int, default=None, help="cap branches per node")
    pl = ss.add_parser("emit-lp", parents=[common, klt], help="write an .lp model")
    pl.add_argument("--kind", choices=("fixed", "census"), default="fixed")
    pl.add_argument("--entry-bound", type=int, default=None, help="census entry bound override")
    pl.add_argument("--tight-link", action="store_true", help="per-column linking rows")
    pl.add_argument("--out", default=None, help="output file (stdout if omitted)")

    p_sdmm = sub.add_parser("sdmm", help="run the protocol end to end")
    ds = p_sdmm.add_subparsers(dest="action", required=True)
    pr = ds.add_parser("run", parents=[common], help="simulate one multiplication")
    pr.add_argument("--K", type=int, default=None)
    pr.add_argument("--L", type=int, default=None)
    pr.add_argument("--T", type=int, default=None)
    pr.add_argument("--r", type=int, default=None)
    pr.add_argument("--dims", required=True, help="a,b,c matrix dimensions")
    pr.add_argument("--q", type=int, default=2, help="minimum field size")
    # argparse runs a string default through type= only when --seed is
    # absent, so a malformed GASPTABLES_SEED is a usage error (exit 2).
    pr.add_argument("--seed", type=int, default=os.environ.get("GASPTABLES_SEED") or "0")
    pr.add_argument("--table", default=None, help="table JSON file overriding --K/--L/--T/--r")
    pr.add_argument("--dump-shares", default=None, metavar="DIR", help="write per-server share files")
    pr.add_argument("--security", choices=("auto", "all", "sampled"), default="auto")

    p_cost = sub.add_parser("cost", help="communication-cost comparisons")
    cs = p_cost.add_subparsers(dest="action", required=True)
    pc = cs.add_parser("compare", parents=[common], help="asymptotic exponents")
    pc.add_argument("--exponents", required=True, help="e_a,e_b,e_c,e_k,e_l,e_m as rationals")
    pn = cs.add_parser("concrete", parents=[common], help="exact costs for given sizes")
    pn.add_argument("--dims", required=True, help="a,b,c")
    pn.add_argument("--blocks", required=True, help="K,L,M")
    pn.add_argument("--servers", required=True, help="N_outer,N_inner")

    p_fig = sub.add_parser("figure", parents=[common], help="plot data for the two figures")
    p_fig.add_argument("which", choices=("1a", "1b"))
    p_fig.add_argument("--n-max", type=int, default=20, dest="n_max")

    p_stats = sub.add_parser("stats", parents=[common], help="candidate-set reduction statistic")
    p_stats.add_argument("--k-max", type=int, default=300, dest="k_max")
    p_stats.add_argument("--t-max", type=int, default=300, dest="t_max")

    return parser


_HANDLERS = {
    "gasp": _handle_gasp,
    "table": _handle_table,
    "bounds": _handle_bounds,
    "search": _handle_search,
    "sdmm": _handle_sdmm,
    "cost": _handle_cost,
    "figure": _handle_figure,
    "stats": _handle_stats,
}


def cmd_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _HANDLERS[args.command](args)
    except (DomainError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cmd_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
