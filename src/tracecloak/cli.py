"""Command-line front door: encode, match, simulate, attack, analyze."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import decimal
import random
import sys
from pathlib import Path

from . import analysis, attacks, matcher, tracing
from .encoder import (
    encode,
    encode_unsorted,
    format_encoding,
    load_params,
    parse_encoding,
)

# flags that several subcommands share, each declared only where read
_FLAGS = {
    "--params": dict(required=True, help="key=value parameter file"),
    "--seed": dict(type=int, default=0),
    "--csv": dict(help="write results to this CSV file"),
}


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tracecloak")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encode", help="encode a world point")
    _add_flags(p_enc, "--params", "--seed")
    p_enc.add_argument("x", help="world point (decimal, or 0x-prefixed hex)")
    p_enc.add_argument(
        "--unsorted", action="store_true", help="corrupted basic code, no sorting"
    )
    p_enc.set_defaults(run=cmd_encode)

    p_match = sub.add_parser("match", help="query a stored entry database")
    _add_flags(p_match, "--csv")
    p_match.add_argument("--db", required=True, help="TSV entry file")
    p_match.add_argument("--tau", type=int, required=True)
    p_match.add_argument("query", help="encoding, 4 hex digits per coordinate (-- before one starting with -)")
    p_match.set_defaults(run=cmd_match)

    p_sim = sub.add_parser("simulate", help="run the tracing protocol simulator")
    _add_flags(p_sim, "--params", "--seed", "--csv")
    p_sim.add_argument("--agents", type=int, default=50)
    p_sim.add_argument("--epochs", type=int, default=50)
    p_sim.add_argument("--grid", default="100x100", help="ROWSxCOLS")
    p_sim.add_argument(
        "--infect", action="append", default=[], help="USER@EPOCH, repeatable"
    )
    p_sim.add_argument("--dilation", type=int, default=0)
    p_sim.add_argument(
        "--inflate",
        action="store_true",
        help="pass world points through the square-free inflation map "
        "(parameters must cover the inflated range)",
    )
    p_sim.set_defaults(run=cmd_simulate)

    p_atk = sub.add_parser("attack", help="run an adversary against one encoding")
    _add_flags(p_atk, "--params", "--seed", "--csv")
    p_atk.add_argument("--kind", choices=("dictionary", "direct"), required=True)
    p_atk.add_argument(
        "--target",
        required=True,
        help="file holding the target encoding (4 hex digits per coordinate) "
        "or a 0x-prefixed world point to encode first",
    )
    p_atk.add_argument("--budget", type=int, default=10_000)
    p_atk.add_argument("--tau", type=int, help="override the matching threshold")
    p_atk.add_argument(
        "--mode", choices=("exhaustive", "randomized"), default="randomized"
    )
    p_atk.set_defaults(run=cmd_attack)

    p_ana = sub.add_parser("analyze", help="bounds, Monte Carlo, separation, table")
    ana_sub = p_ana.add_subparsers(dest="analysis", required=True)

    a_bound = ana_sub.add_parser("bound", help="accidental-match probability bound")
    a_bound.add_argument("--p", type=int, required=True)
    a_bound.add_argument("--n", type=int, required=True)
    a_bound.add_argument("--tau", type=int, required=True)
    a_bound.set_defaults(run=cmd_analyze_bound)

    a_mc = ana_sub.add_parser("mc", help="Monte Carlo estimate vs the bound")
    a_mc.add_argument("--p", type=int, required=True)
    a_mc.add_argument("--n", type=int, required=True)
    a_mc.add_argument("--tau", type=int, required=True)
    a_mc.add_argument("--trials", type=int, default=10**6)
    _add_flags(a_mc, "--seed")
    a_mc.set_defaults(run=cmd_analyze_mc)

    a_l1 = ana_sub.add_parser("lemma1", help="unsorted-mode separation check")
    _add_flags(a_l1, "--params", "--seed")
    a_l1.add_argument("--trials", type=int, default=10**4)
    a_l1.set_defaults(run=cmd_analyze_lemma1)

    a_t1 = ana_sub.add_parser("table1", help="reference parameter table")
    a_t1.add_argument("--world", type=_count, default=10**19)
    a_t1.add_argument("--database", type=_count, default=10**14)
    _add_flags(a_t1, "--csv")
    a_t1.set_defaults(run=cmd_analyze_table1)

    return parser


# digits a count may have, the limit at which int() stops reading a decimal string
_COUNT_DIGITS = 4300


def _count(text: str) -> int:
    """A positive integer, written out or as an integral AeB such as 1e19,
    read exactly: through a float, 1e23 would round and 1e400 overflow."""
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value.is_finite() or value <= 0 or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"need a positive integer, got {text!r}")
    if value.adjusted() >= _COUNT_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {_COUNT_DIGITS} digits: {text!r}")
    return int(value)


def _parse_point(text: str) -> int:
    return int(text, 16) if text.lower().startswith("0x") else int(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_target(path_or_hex: str, params, rng) -> tuple[int, ...]:
    is_point = path_or_hex.lower().startswith("0x")
    text = path_or_hex if is_point else Path(path_or_hex).read_text().strip()
    if text.lower().startswith("0x"):
        return encode(_parse_point(text), params, rng)
    return parse_encoding(text)


def cmd_encode(args) -> int:
    params = load_params(args.params)
    rng = random.Random(args.seed)
    x = _parse_point(args.x)
    if args.unsorted:
        coords = encode_unsorted(x, params, rng)
    else:
        coords = encode(x, params, rng)
    print(format_encoding(coords))
    return 0


def cmd_match(args) -> int:
    if args.tau < 0:
        raise ValueError(f"--tau must be non-negative, got {args.tau}")
    entries = matcher.load_entries(args.db)
    query = parse_encoding(args.query)
    rows = [
        (entry.user_id, entry.tag, format_encoding(entry.encoding))
        for entry in matcher.scan_match(entries, query, args.tau)
    ]
    for row in rows:
        print("\t".join(row))
    if args.csv:
        _write_csv(args.csv, ["user_id", "tag", "encoding"], rows)
    return 0


def cmd_simulate(args) -> int:
    params = load_params(args.params)
    try:
        rows, cols = (int(side) for side in args.grid.split("x"))
    except ValueError:
        raise ValueError(f"--grid wants ROWSxCOLS, got {args.grid!r}") from None
    grid = tracing.GridSpec(rows=rows, cols=cols, epochs=args.epochs)
    infections = []
    for spec in args.infect:
        user, _, epoch = spec.partition("@")
        try:
            infections.append((user, int(epoch)))
        except ValueError:
            raise ValueError(f"--infect wants USER@EPOCH, got {spec!r}") from None
    result = tracing.run_simulation(
        agents=args.agents,
        grid=grid,
        params=params,
        seed=args.seed,
        infections=infections,
        dilation_radius=args.dilation,
        inflate_world=args.inflate,
    )
    alerted = sorted(result.alerted_users())
    print(f"agents={args.agents} epochs={args.epochs} grid={args.grid}")
    print(f"server store size: {result.server.store_size}")
    print(f"true contacts: {len(result.contacts)}, alerted users: {len(alerted)}")
    for user, t, cell, _ in result.recovered:
        print(f"alert\t{user}\tepoch={t}\tcell={cell}")
    if args.csv:
        _write_csv(
            args.csv,
            ["user_id", "epoch", "cell", "encoding"],
            [(user, t, cell, format_encoding(e)) for user, t, cell, e in result.recovered],
        )
    return 0


def cmd_attack(args) -> int:
    if args.tau is not None and args.tau < 0:
        raise ValueError(f"--tau must be non-negative, got {args.tau}")
    params = load_params(args.params)
    rng = random.Random(args.seed)
    tau = args.tau if args.tau is not None else params.tau
    target = _load_target(args.target, params, rng)
    if args.kind == "dictionary":
        (report,) = attacks.dictionary_attack([target], range(params.M), params, tau)
    else:
        report = attacks.direct_attack(
            target, params, tau, rng=rng, mode=args.mode, budget=args.budget
        )
    print(f"recovered: {report.recovered}")
    print(
        f"solves={report.solves_performed} encodings={report.encodings_performed} "
        f"iterations={report.iterations} wall_time={report.wall_time:.3f}s"
    )
    if args.csv:
        _write_csv(
            args.csv,
            ["kind", "recovered", "solves", "encodings", "iterations", "wall_time"],
            [
                [
                    args.kind,
                    report.recovered,
                    report.solves_performed,
                    report.encodings_performed,
                    report.iterations,
                    f"{report.wall_time:.6f}",
                ]
            ],
        )
    return 0 if report.recovered is not None else 1


def cmd_analyze_bound(args) -> int:
    log10 = analysis.fp_bound_log10(args.p, args.n, args.tau)
    print(f"log10 bound: {log10:.4f}  (~10^{log10:.1f})")
    return 0


def cmd_analyze_mc(args) -> int:
    rng = random.Random(args.seed)
    e = tuple(sorted(rng.randrange(args.p) for _ in range(args.n)))
    est = analysis.mc_match_prob(args.p, args.n, args.tau, e, args.trials, seed=args.seed)
    lo, hi = est.ci
    bound = analysis.fp_bound(args.p, args.n, args.tau)
    print(f"estimate: {est.estimate:.3e}  ci99=[{lo:.3e}, {hi:.3e}]")
    print(f"bound:    {bound:.3e}  holds: {hi <= bound}")
    return 0 if hi <= bound else 1


def cmd_analyze_lemma1(args) -> int:
    params = load_params(args.params)
    rng = random.Random(args.seed)
    res = analysis.lemma1_check(params, args.trials, rng)
    print(
        f"false negatives: {res.false_negatives}/{res.same_x_trials}  "
        f"false positives: {res.false_positives}/{res.distinct_x_trials}"
    )
    return 0 if res.ok else 1


def cmd_analyze_table1(args) -> int:
    rows = analysis.table1_report(M=args.world, D=args.database)
    rows = [dataclasses.astuple(row) for row in rows]
    header = [f.name for f in dataclasses.fields(analysis.ParamRow)]
    print("\t".join(header))
    for row in rows:
        print("\t".join(str(v) for v in row))
    if args.csv:
        _write_csv(args.csv, header, rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    # bad input, or an input file that cannot be read: a usage error, not
    # a traceback
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
