import csv
import random
import shlex
from pathlib import Path

import pytest

from tracecloak import attacks, kernels
from tracecloak.cli import build_parser, main
from tracecloak.encoder import (
    CODE_LIMIT,
    PolyCodeParams,
    RrnsParams,
    encode,
    format_encoding,
    parse_encoding,
    save_params,
)
from tracecloak.matcher import DatabaseEntry, save_entries, scan_match
from tracecloak.tracing import GridSpec, run_simulation

DESK = PolyCodeParams(M=10**4, p=31, n=10, k=2)


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.txt"
    save_params(DESK, path)
    return str(path)


def test_encode_deterministic(tmp_path, capsys):
    path = tmp_path / "params.txt"
    save_params(PolyCodeParams(M=49, p=7, n=5, k=0), path)
    assert main(["encode", "--params", str(path), "17"]) == 0
    assert capsys.readouterr().out.strip() == "00000002000300040005"


def test_encode_unsorted_and_hex(params_file, capsys):
    assert main(["encode", "--params", params_file, "--unsorted", "0x10"]) == 0
    assert len(parse_encoding(capsys.readouterr().out.strip())) == DESK.n


def test_match_command(tmp_path, capsys):
    rng = random.Random(0)
    x = rng.randrange(DESK.M)
    stored = encode(x, DESK, rng)
    query = encode(x, DESK, rng)
    db = tmp_path / "db.tsv"
    save_entries(
        [
            DatabaseEntry("hit", stored),
            DatabaseEntry("miss", tuple(sorted(rng.randrange(31) for _ in range(10)))),
        ],
        db,
    )
    assert (
        main(
            [
                "match",
                "--db",
                str(db),
                "--tau",
                str(DESK.tau),
                format_encoding(query),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "hit" in out

    assert (
        main(["match", "--db", str(db), "--tau", "0", format_encoding(stored)])
        == 0
    )
    assert "hit" in capsys.readouterr().out


def test_match_equals_scan_match(tmp_path, capsys):
    """`match` prints and writes exactly what `scan_match` returns, in db
    order."""
    rng = random.Random(1)
    x = rng.randrange(DESK.M)
    query = encode(x, DESK, rng)
    entries = [DatabaseEntry(f"u{i}", encode(x, DESK, rng)) for i in range(5)]
    entries += [
        DatabaseEntry("far", tuple(sorted(rng.randrange(31) for _ in range(10)))),
        DatabaseEntry("near", query[:-1] + (query[-1] + 1,), "infected"),
    ]
    db = tmp_path / "db.tsv"
    save_entries(entries, db)
    csv_out = tmp_path / "match.csv"
    for tau in (0, 1, DESK.tau):
        argv = ["match", "--db", str(db), "--tau", str(tau), "--csv", str(csv_out)]
        assert main(argv + [format_encoding(query)]) == 0
        expected = [
            f"{e.user_id}\t{e.tag}\t{format_encoding(e.encoding)}"
            for e in scan_match(entries, query, tau)
        ]
        assert capsys.readouterr().out.splitlines() == expected
        csv_lines = csv_out.read_text().splitlines()
        assert csv_lines[0] == "user_id,tag,encoding"
        assert len(csv_lines) == len(expected) + 1
    assert "near" in {e.user_id for e in scan_match(entries, query, 1)}


def test_match_refuses_coordinates_outside_the_alphabet(tmp_path, capsys):
    """A coordinate outside [0, CODE_LIMIT) cannot be written as an
    encoding, so a db line or a query that tries (five hex digits, a sign,
    the old decimal list) is not an encoding: a usage error naming the
    file and line of a db line."""
    rng = random.Random(1)
    query = format_encoding(encode(rng.randrange(DESK.M), DESK, rng))
    db = tmp_path / "db.tsv"

    def refused(lines, q, message):
        db.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(SystemExit) as exc:
            main(["match", "--db", str(db), "--tau", "1", "--", q])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("tracecloak: error:")] == [
            f"tracecloak: error: {message}"
        ]

    ok = f"u0\tuninfected\t{query}"
    wide = f"{CODE_LIMIT:x}" + query[4:]  # CODE_LIMIT in five hex digits
    refused([ok, f"wide\tinfected\t{wide}"], query, f"{db}:2: not an encoding: {wide!r}")
    refused([f"dec\tuninfected\t1,2,3", ok], query, f"{db}:1: not an encoding: '1,2,3'")
    for bad in (wide, "-001" + query[4:], query[:-1], query[:8] + " " + query[9:], "1,2,3"):
        refused([ok], bad, f"not 4 hex digits per coordinate: {bad!r}")


def test_simulate_command(tmp_path, capsys):
    path = tmp_path / "params.txt"
    grid_world = 5 * 5 * 10
    save_params(PolyCodeParams(M=grid_world, p=101, n=20, k=2), path)
    out_csv = tmp_path / "report.csv"
    assert (
        main(
            [
                "simulate",
                "--params",
                str(path),
                "--agents",
                "6",
                "--epochs",
                "10",
                "--grid",
                "5x5",
                "--seed",
                "2",
                "--infect",
                "u0@9",
                "--dilation",
                "0",
                "--csv",
                str(out_csv),
            ]
        )
        == 0
    )
    assert out_csv.exists()
    assert out_csv.read_text().splitlines()[0] == "user_id,epoch,cell,encoding"
    assert "server store size: 60" in capsys.readouterr().out


def test_simulation_csv(tmp_path):
    """`simulate --csv` writes one row per recovered alert."""
    grid = GridSpec(rows=4, cols=4, epochs=10)
    params = PolyCodeParams(M=grid.world_size, p=101, n=20, k=2)
    params_path = tmp_path / "params.txt"
    save_params(params, params_path)
    out = tmp_path / "report.csv"
    argv = ["simulate", "--params", str(params_path), "--agents", "5", "--epochs", "10"]
    argv += ["--grid", "4x4", "--seed", "1", "--infect", "u0@9", "--csv", str(out)]
    assert main(argv) == 0
    result = run_simulation(
        agents=5, grid=grid, params=params, seed=1, infections=[("u0", 9)]
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "user_id,epoch,cell,encoding"
    assert len(lines) == 1 + len(result.recovered)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [
        [user, str(t), str(cell), format_encoding(e)] for user, t, cell, e in result.recovered
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--params", "{params}", "5", "--csv", "{out}"],
        ["match", "--db", "{out}", "--tau", "1", "1,2,3", "--seed", "1"],
    ],
    ids=["encode_csv", "match_seed"],
)
def test_flags_a_command_does_not_read_are_refused(params_file, tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([a.format(params=params_file, out=out) for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "params_text, args, message",
    [
        (None, ["--grid", "100"], "--grid wants ROWSxCOLS, got '100'"),
        (None, ["--infect", "u0"], "--infect wants USER@EPOCH, got 'u0'"),
        (None, ["--infect", "u7@1"], "unknown infected user 'u7'"),
        ("M=10000\np=31\nn=10\n", [], "missing parameter 'k'"),
        (
            None,
            ["--grid", "8589934592x8589934592"],
            "a grid of 73786976294838206464 cells: the walk needs fewer than 2^63",
        ),
    ],
    ids=["grid_without_x", "infect_without_at", "unknown_user", "missing_key", "grid_too_large"],
)
def test_simulate_input_errors_are_usage_errors(
    params_file, tmp_path, capsys, params_text, args, message
):
    if params_text is not None:
        params_file = tmp_path / "partial.txt"
        params_file.write_text(params_text)
    argv = ["simulate", "--params", str(params_file), "--agents", "3", "--epochs", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + args)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("tracecloak: error:")]
    assert errors == [f"tracecloak: error: {message}"]


def test_encode_unsorted_with_rrns_params_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "rrns.txt"
    save_params(RrnsParams(primes=(97, 101, 103, 107, 109, 113, 127, 131), M=10**6, k=2), path)
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--params", str(path), "--unsorted", "17"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("tracecloak: error:")]
    assert errors == ["tracecloak: error: unsorted mode needs polynomial parameters"]


def test_analyze_lemma1_with_rrns_params_is_a_usage_error(tmp_path, capsys):
    """The separation check runs the unsorted mode, which only the polynomial
    code has; residue parameters used to end in an AttributeError traceback."""
    path = tmp_path / "rrns.txt"
    save_params(RrnsParams(primes=(101, 103, 107, 109, 113, 127, 131), M=10**6, k=1), path)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "lemma1", "--params", str(path), "--trials", "10"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("tracecloak: error:")]
    assert errors == ["tracecloak: error: unsorted mode needs polynomial parameters"]


def test_match_refuses_a_negative_tau(tmp_path, capsys):
    db = tmp_path / "db.tsv"
    save_entries([DatabaseEntry("u0", tuple(range(10)))], db)
    with pytest.raises(SystemExit) as exc:
        main(["match", "--db", str(db), "--tau", "-1", format_encoding(tuple(range(10)))])
    assert exc.value.code == 2
    assert "tracecloak: error: --tau must be non-negative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, attack", [("dictionary", "dictionary_attack"), ("direct", "direct_attack")]
)
def test_attack_refuses_a_negative_tau(params_file, monkeypatch, capsys, kind, attack):
    def refuse(*args, **kwargs):
        raise AssertionError("attacked with a tau that can never match")

    monkeypatch.setattr(attacks, attack, refuse)
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--params", params_file, "--kind", kind, "--target", "0x5", "--tau", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("tracecloak: error:")]
    assert errors == ["tracecloak: error: --tau must be non-negative, got -1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--params", "{missing}"],
        ["match", "--db", "{missing}", "--tau", "1", "1,2,3"],
        ["attack", "--params", "{params}", "--kind", "dictionary", "--target", "{missing}"],
    ],
    ids=["params", "db", "target"],
)
def test_missing_input_file_is_a_usage_error(params_file, tmp_path, capsys, argv):
    missing = tmp_path / "missing.txt"
    argv = [a.format(missing=missing, params=params_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("tracecloak: error:")]
    assert errors == [f"tracecloak: error: [Errno 2] No such file or directory: '{missing}'"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "lemma1", "--trials", "0"], "need at least one trial"),
        (["analyze", "lemma1", "--trials", "-3"], "need at least one trial"),
        (
            ["attack", "--kind", "direct", "--target", "0x5", "--budget", "-5"],
            "randomized mode needs an iteration budget of at least 1, got -5",
        ),
        (["simulate", "--agents", "-3", "--epochs", "2"], "need at least one agent, got -3"),
        (["simulate", "--agents", "0", "--epochs", "2"], "need at least one agent, got 0"),
        (
            ["attack", "--kind", "direct", "--target", "{short}"],
            "target has 3 coordinates, the code has n=12",
        ),
    ],
    ids=[
        "trials_0",
        "trials_negative",
        "budget_negative",
        "agents_negative",
        "agents_0",
        "target_of_3_coordinates",
    ],
)
def test_a_count_below_one_is_a_usage_error(tmp_path, capsys, argv, message):
    """Each of these used to exit 0 or 1 after doing nothing: a separation
    check with no trial, an attack with no iteration, a simulation with a
    negative number of agents.  A direct attack on a target with fewer
    coordinates than the code ended in an IndexError traceback."""
    path = tmp_path / "params.txt"
    save_params(PolyCodeParams(M=17**3, p=17, n=12, k=2), path)
    short = tmp_path / "short.txt"
    short.write_text(format_encoding((1, 2, 3)) + "\n")
    argv = [a.format(short=short) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--params", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("tracecloak: error:")]
    assert errors == [f"tracecloak: error: {message}"]


def test_analyze_mc_checks_its_parameters_before_drawing(monkeypatch, capsys):
    def count(*args):
        raise AssertionError("drew rows for parameters it should have rejected")

    monkeypatch.setattr(kernels, "count_sorted_within", count)
    argv = ["analyze", "mc", "--p", "3", "--n", "5", "--tau", "2", "--trials", "3000000"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "tracecloak: error: need 0 <= tau <= n <= p" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bound", "mc"])
def test_a_p_of_zero_is_a_usage_error_naming_p(capsys, command):
    """Both used to end in "error: math domain error"."""
    with pytest.raises(SystemExit) as exc:
        main(["analyze", command, "--p", "0", "--n", "0", "--tau", "0"])
    assert exc.value.code == 2
    assert "tracecloak: error: need p > 0, got p = 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--params", "{params}", "5"],
        ["simulate", "--params", "{params}"],
        ["attack", "--params", "{params}", "--kind", "dictionary", "--target", "0x5"],
        ["analyze", "mc", "--p", "11", "--n", "5", "--tau", "2"],
        ["analyze", "lemma1", "--params", "{params}"],
    ],
    ids=["encode", "simulate", "attack", "analyze_mc", "analyze_lemma1"],
)
def test_a_negative_seed_is_a_usage_error_naming_the_flag(params_file, capsys, argv):
    """`encode`, `attack` and `analyze lemma1` used to accept -1, and
    `simulate` and `analyze mc` to fail with numpy's message, which names
    no flag."""
    argv = [a.format(params=params_file) for a in argv]
    for seed, reason in (("-1", "need a non-negative integer, got -1"), ("x", "not an integer: 'x'")):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", seed])
        assert exc.value.code == 2
        assert f"error: argument --seed: {reason}" in capsys.readouterr().err


def test_attack_command(params_file, tmp_path, capsys):
    target = tmp_path / "target.txt"
    rng = random.Random(3)
    target.write_text(format_encoding(encode(1234, DESK, rng)) + "\n")
    csv_out = tmp_path / "attack.csv"
    rc = main(
        [
            "attack",
            "--kind",
            "direct",
            "--params",
            params_file,
            "--target",
            str(target),
            "--budget",
            "300",
            "--seed",
            "4",
            "--csv",
            str(csv_out),
        ]
    )
    assert rc == 0
    assert "recovered:" in capsys.readouterr().out
    assert csv_out.read_text().startswith("kind,recovered,solves")


def test_attack_dictionary_on_hex_point(params_file, capsys):
    rc = main(
        [
            "attack",
            "--kind",
            "dictionary",
            "--params",
            params_file,
            "--target",
            "0x64",
            "--seed",
            "5",
        ]
    )
    assert rc == 0


def test_attack_dictionary(params_file, tmp_path, capsys):
    """The dictionary attack encodes the whole world once and prints the
    first point within tau of the target, whose own point is a candidate."""
    csv_out = tmp_path / "attack.csv"
    argv = ["attack", "--kind", "dictionary", "--params", params_file, "--target", "0x64", "--seed", "5"]
    assert main(argv + ["--csv", str(csv_out)]) == 0
    first, second = capsys.readouterr().out.splitlines()
    target = encode(0x64, DESK, random.Random(5))
    (report,) = attacks.dictionary_attack([target], range(DESK.M), DESK, DESK.tau)
    assert 0x64 in report.candidates
    assert first == f"recovered: {report.recovered}"
    assert second.startswith(f"solves=0 encodings={DESK.M} iterations=0 wall_time=")
    header, row = csv.reader(csv_out.read_text().splitlines())
    assert header == ["kind", "recovered", "solves", "encodings", "iterations", "wall_time"]
    assert row[:5] == ["dictionary", str(report.recovered), "0", str(DESK.M), "0"]


def test_attack_dictionary_over_a_world_no_index_holds(tmp_path, capsys):
    """No index holds a world of 10^19 points: it is a usage error before
    any point is encoded, not an OverflowError from len(range(M))."""
    path = tmp_path / "params.txt"
    save_params(PolyCodeParams(M=10**19, p=503, n=100, k=10), path)
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--kind", "dictionary", "--params", str(path), "--target", "0x64"])
    assert exc.value.code == 2
    message = "more than 4294967295 points: a dictionary holds at most that many"
    assert f"tracecloak: error: {message}" in capsys.readouterr().err


def test_attack_target_file_holding_a_point(params_file, tmp_path, capsys):
    """A --target file that holds 0x... is the point, encoded as on the
    command line."""
    target = tmp_path / "target.txt"
    target.write_text("0x64\n")
    argv = ["attack", "--kind", "dictionary", "--params", params_file, "--seed", "5", "--target"]
    assert main(argv + [str(target)]) == 0
    from_file = capsys.readouterr().out.splitlines()[0]
    assert main(argv + ["0x64"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == from_file


def test_encode_with_a_world_of_no_points_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "params.txt"
    path.write_text("M=0\np=31\nn=10\nk=2\n")
    with pytest.raises(SystemExit) as exc:
        main(["encode", "--params", str(path), "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    errors = [line for line in err if line.startswith("tracecloak: error:")]
    assert errors == ["tracecloak: error: need a world of M >= 1 points, got M=0"]


def test_analyze_bound(capsys):
    assert main(["analyze", "bound", "--p", "503", "--n", "100", "--tau", "20"]) == 0
    assert "-70.5" in capsys.readouterr().out


def test_analyze_mc(capsys):
    assert (
        main(
            [
                "analyze",
                "mc",
                "--p",
                "11",
                "--n",
                "5",
                "--tau",
                "2",
                "--trials",
                "20000",
                "--seed",
                "1",
            ]
        )
        == 0
    )
    assert "holds: True" in capsys.readouterr().out


def test_analyze_lemma1(tmp_path, capsys):
    path = tmp_path / "params.txt"
    save_params(PolyCodeParams(M=17**3, p=17, n=12, k=2), path)
    assert (
        main(["analyze", "lemma1", "--params", str(path), "--trials", "500"]) == 0
    )
    out = capsys.readouterr().out
    assert "false negatives: 0/500" in out


def test_analyze_table1(tmp_path, capsys):
    csv_out = tmp_path / "table1.csv"
    assert main(["analyze", "table1", "--csv", str(csv_out)]) == 0
    out = capsys.readouterr().out
    assert "polynomial" in out and "residues" in out
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("method,")
    assert len(lines) == 5


@pytest.mark.parametrize(
    "text, value",
    [("1e23", 10**23), ("1E19", 10**19), ("12345678901234567890123", 12345678901234567890123), ("1.5e3", 1500)],
)
def test_table1_counts_are_read_exactly(text, value):
    # through a float, 1e23 read as 99999999999999991611392
    for flag in ("--world", "--database"):
        args = build_parser().parse_args(["analyze", "table1", flag, text])
        assert getattr(args, flag[2:]) == value


@pytest.mark.parametrize("text", ["inf", "nan", "2.5", "1e-3", "0", "-0", "abc", "1e5000"])
def test_table1_refuses_what_is_not_a_positive_integer(capsys, text):
    for flag in ("--world", "--database"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "table1", f"{flag}={text}"])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err


def test_table1_world_beyond_a_float_is_a_usage_error(capsys):
    # through a float, 1e400 ended in an OverflowError traceback; read
    # exactly, it is a world too large for the reference code lengths
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "table1", "--world", "1e400"])
    assert exc.value.code == 2
    assert "tracecloak: error: code length n=100 below digit count m=149" in capsys.readouterr().err


def test_every_readme_cli_line_parses(capsys):
    """Each `tracecloak ...` line of the README's CLI block, its `\\`
    continuations joined, is one the parser accepts: a subcommand, kind or
    flag the code drops fails here while the README keeps it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("tracecloak ")]
    assert len(commands) == len(lines)
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {shlex.join(argv)}\n{capsys.readouterr().err}")
