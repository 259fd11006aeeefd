import random

import pytest

from tracecloak.cli import main
from tracecloak.encoder import (
    PolyCodeParams,
    encode,
    format_encoding,
    save_params,
)
from tracecloak.matcher import DatabaseEntry, save_entries

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
    assert capsys.readouterr().out.strip() == "0,2,3,4,5"


def test_encode_unsorted_and_hex(params_file, capsys):
    assert main(["encode", "--params", params_file, "--unsorted", "0x10"]) == 0
    coords = capsys.readouterr().out.strip().split(",")
    assert len(coords) == DESK.n


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
        main(["match", "--db", str(db), "--tau", "0", "--exact", format_encoding(stored)])
        == 0
    )
    assert "hit" in capsys.readouterr().out


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
                "--out",
                str(out_csv),
            ]
        )
        == 0
    )
    assert out_csv.exists()
    assert out_csv.read_text().splitlines()[0] == "user_id,epoch,cell,encoding"
    assert "server store size: 60" in capsys.readouterr().out


@pytest.mark.parametrize(
    "params_text, args, message",
    [
        (None, ["--grid", "100"], "--grid wants ROWSxCOLS, got '100'"),
        (None, ["--infect", "u0"], "--infect wants USER@EPOCH, got 'u0'"),
        (None, ["--infect", "u7@1"], "unknown infected user 'u7'"),
        ("M=10000\np=31\nn=10\n", [], "missing parameter 'k'"),
    ],
    ids=["grid_without_x", "infect_without_at", "unknown_user", "missing_key"],
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


def test_attack_brute_on_hex_point(params_file, capsys):
    rc = main(
        [
            "attack",
            "--kind",
            "brute",
            "--params",
            params_file,
            "--target",
            "0x64",
            "--seed",
            "5",
        ]
    )
    assert rc == 0


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
