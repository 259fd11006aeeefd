"""Command-line front door: encode, match, simulate, attack, analyze."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import random
import sys
from pathlib import Path

from . import analysis, attacks, matcher, tracing
from .encoder import (
    PolyCodeParams,
    encode,
    encode_unsorted,
    format_encoding,
    load_params,
    parse_encoding,
)

DEFAULT_SEED = 0


def _add_common(parser: argparse.ArgumentParser, params: bool = True) -> None:
    if params:
        parser.add_argument("--params", required=True, help="key=value parameter file")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--csv", help="write results to this CSV file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tracecloak")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encode", help="encode a world point")
    _add_common(p_enc)
    p_enc.add_argument("x", help="world point (decimal, or 0x-prefixed hex)")
    p_enc.add_argument(
        "--unsorted", action="store_true", help="corrupted basic code, no sorting"
    )

    p_match = sub.add_parser("match", help="query a stored entry database")
    _add_common(p_match, params=False)
    p_match.add_argument("--db", required=True, help="TSV entry file")
    p_match.add_argument("--tau", type=int, required=True)
    p_match.add_argument("--exact", action="store_true", help="exact match only (tau 0)")
    p_match.add_argument("query", help="comma-separated encoding")

    p_sim = sub.add_parser("simulate", help="run the tracing protocol simulator")
    _add_common(p_sim)
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
    p_sim.add_argument("--out", help="alert report CSV")

    p_atk = sub.add_parser("attack", help="run an adversary against one encoding")
    _add_common(p_atk)
    p_atk.add_argument("--kind", choices=("brute", "table", "direct"), required=True)
    p_atk.add_argument(
        "--target",
        required=True,
        help="file holding the target encoding (comma-separated coords) "
        "or a 0x-prefixed world point to encode first",
    )
    p_atk.add_argument("--budget", type=int, default=10_000)
    p_atk.add_argument("--tau", type=int, help="override the matching threshold")
    p_atk.add_argument(
        "--mode", choices=("exhaustive", "randomized"), default="randomized"
    )

    p_ana = sub.add_parser("analyze", help="bounds, Monte Carlo, separation, table")
    ana_sub = p_ana.add_subparsers(dest="analysis", required=True)

    a_bound = ana_sub.add_parser("bound", help="accidental-match probability bound")
    a_bound.add_argument("--p", type=int, required=True)
    a_bound.add_argument("--n", type=int, required=True)
    a_bound.add_argument("--tau", type=int, required=True)

    a_mc = ana_sub.add_parser("mc", help="Monte Carlo estimate vs the bound")
    a_mc.add_argument("--p", type=int, required=True)
    a_mc.add_argument("--n", type=int, required=True)
    a_mc.add_argument("--tau", type=int, required=True)
    a_mc.add_argument("--trials", type=int, default=10**6)
    a_mc.add_argument("--seed", type=int, default=DEFAULT_SEED)

    a_l1 = ana_sub.add_parser("lemma1", help="unsorted-mode separation check")
    a_l1.add_argument("--params", required=True)
    a_l1.add_argument("--trials", type=int, default=10**4)
    a_l1.add_argument("--seed", type=int, default=DEFAULT_SEED)

    a_t1 = ana_sub.add_parser("table1", help="reference parameter table")
    a_t1.add_argument("--world", type=lambda s: int(float(s)), default=10**19)
    a_t1.add_argument("--database", type=lambda s: int(float(s)), default=10**14)
    a_t1.add_argument("--csv", help="write the table to this CSV file")

    return parser


def _parse_point(text: str) -> int:
    return int(text, 16) if text.lower().startswith("0x") else int(text)


def _load_target(path_or_hex: str, params, rng) -> tuple[int, ...]:
    if path_or_hex.lower().startswith("0x"):
        return encode(_parse_point(path_or_hex), params, rng)
    content = Path(path_or_hex).read_text().strip()
    if content.lower().startswith("0x"):
        return encode(_parse_point(content), params, rng)
    return parse_encoding(content)


def cmd_encode(args) -> int:
    params = load_params(args.params)
    rng = random.Random(args.seed)
    x = _parse_point(args.x)
    if args.unsorted:
        if not isinstance(params, PolyCodeParams):
            print("unsorted mode needs polynomial parameters", file=sys.stderr)
            return 2
        coords = encode_unsorted(x, params, rng)
    else:
        coords = encode(x, params, rng)
    print(format_encoding(coords))
    return 0


def cmd_match(args) -> int:
    entries = matcher.load_entries(args.db)
    query = parse_encoding(args.query)
    tau = 0 if args.exact else args.tau
    hits = matcher.build_index(entries, len(query), tau).query(query, tau)
    for entry in hits:
        print(f"{entry.user_id}\t{entry.tag}\t{format_encoding(entry.encoding)}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user_id", "tag", "encoding"])
            for entry in hits:
                writer.writerow(
                    [entry.user_id, entry.tag, format_encoding(entry.encoding)]
                )
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
    out = args.out or args.csv
    if out:
        tracing.write_report_csv(result, out)
    return 0


def cmd_attack(args) -> int:
    params = load_params(args.params)
    rng = random.Random(args.seed)
    tau = args.tau if args.tau is not None else params.tau
    target = _load_target(args.target, params, rng)
    if args.kind == "brute":
        report = attacks.brute_force_attack(target, params, tau)
    elif args.kind == "table":
        table = attacks.table_attack_build(params, rng)
        report = attacks.table_attack_query(table, target, tau)
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
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["kind", "recovered", "solves", "encodings", "iterations", "wall_time"]
            )
            writer.writerow(
                [
                    args.kind,
                    report.recovered,
                    report.solves_performed,
                    report.encodings_performed,
                    report.iterations,
                    f"{report.wall_time:.6f}",
                ]
            )
    return 0 if report.recovered is not None else 1


def cmd_analyze(args) -> int:
    if args.analysis == "bound":
        log10 = analysis.fp_bound_log10(args.p, args.n, args.tau)
        print(f"log10 bound: {log10:.4f}  (~10^{log10:.1f})")
        return 0
    if args.analysis == "mc":
        rng = random.Random(args.seed)
        e = tuple(sorted(rng.randrange(args.p) for _ in range(args.n)))
        est = analysis.mc_match_prob(
            args.p, args.n, args.tau, e, args.trials, seed=args.seed
        )
        lo, hi = est.ci
        bound = analysis.fp_bound(args.p, args.n, args.tau)
        print(f"estimate: {est.estimate:.3e}  ci99=[{lo:.3e}, {hi:.3e}]")
        print(f"bound:    {bound:.3e}  holds: {hi <= bound}")
        return 0 if hi <= bound else 1
    if args.analysis == "lemma1":
        params = load_params(args.params)
        rng = random.Random(args.seed)
        res = analysis.lemma1_check(params, args.trials, rng)
        print(
            f"false negatives: {res.false_negatives}/{res.same_x_trials}  "
            f"false positives: {res.false_positives}/{res.distinct_x_trials}"
        )
        return 0 if res.ok else 1
    if args.analysis == "table1":
        rows = analysis.table1_report(M=args.world, D=args.database)
        header = [f.name for f in dataclasses.fields(analysis.ParamRow)]
        print("\t".join(header))
        for row in rows:
            print("\t".join(str(v) for v in dataclasses.astuple(row)))
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow(dataclasses.astuple(row))
        return 0
    raise AssertionError(f"unhandled analysis {args.analysis!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "encode": cmd_encode,
        "match": cmd_match,
        "simulate": cmd_simulate,
        "attack": cmd_attack,
        "analyze": cmd_analyze,
    }
    try:
        return handlers[args.command](args)
    # bad input, or an input file that cannot be read: a usage error, not
    # a traceback
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
