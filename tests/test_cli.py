import csv
import json
from dataclasses import fields

import pytest

from double_oracle import FiniteMixedStrategy, expected_utility, point
from double_oracle.cli import ExperimentConfig, main, make_parser, read_config_file
from double_oracle.matrix_game import embed_matrix_game
from double_oracle.one_dim import make_polynomial_game

PENNIES = "[[1.0, -1.0], [-1.0, 1.0]]"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mixture_from_payload(payload):
    return FiniteMixedStrategy(
        tuple(point(*coords) for coords in payload["atoms"]),
        tuple(payload["weights"]),
    )


def run_cli(*argv):
    return main(list(argv))


def test_run_polynomial_game(tmp_path, capsys):
    code = run_cli(
        "run", "--game", "g1", "--epsilon", "1e-3", "--seed", "7",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "g1-polynomial / double-oracle" in out

    rows = read_csv(tmp_path / "g1-polynomial_double-oracle_trace.csv")
    assert rows[0] == ["iter", "lower", "upper", "gap",
                       "subgame_value", "size_x", "size_y", "time_s"]
    assert [r[0] for r in rows[1:]] == [str(i) for i in range(1, len(rows))]
    for r in rows[1:]:
        lower, upper, gap = float(r[1]), float(r[2]), float(r[3])
        assert gap == pytest.approx(upper - lower, abs=1e-9)

    result = read_json(tmp_path / "g1-polynomial_double-oracle_result.json")
    assert result["terminated_by"] == "gap"
    assert result["value"] == pytest.approx(-0.48, abs=1e-3)
    assert result["gap"] <= 1e-3 + 1e-9
    assert result["iterations"] == len(rows) - 1
    assert result["config"]["epsilon"] == 1e-3


def test_stalled_run_exits_two(tmp_path):
    # Below the subgame LP's error the gap does not close; the sets stop
    # growing long before the default budget of 1000 iterations.
    code = run_cli("run", "--game", "g2", "--epsilon", "1e-8", "--outdir", str(tmp_path))
    assert code == 2
    result = read_json(tmp_path / "g2-townsend_double-oracle_result.json")
    assert result["terminated_by"] == "stalled"
    assert result["gap"] > 1e-8
    rows = read_csv(tmp_path / "g2-townsend_double-oracle_trace.csv")
    assert len(rows) - 1 == result["iterations"] < 100


def test_run_result_mixtures_reproduce_value(tmp_path):
    run_cli("run", "--game", "g1", "--seed", "3", "--outdir", str(tmp_path))
    result = read_json(tmp_path / "g1-polynomial_double-oracle_result.json")
    p = mixture_from_payload(result["p_star"])
    q = mixture_from_payload(result["q_star"])
    got = expected_utility(p, q, make_polynomial_game())
    assert got == pytest.approx(result["value"], abs=1e-9)


def test_fictitious_play_exits_two_and_round_trips(tmp_path):
    matrix = tmp_path / "pennies.json"
    matrix.write_text(PENNIES)
    code = run_cli(
        "run", "--game", "matrix", "--algo", "fictitious-play",
        "--matrix", str(matrix), "--max-iters", "30", "--outdir", str(tmp_path),
    )
    assert code == 2

    result = read_json(tmp_path / "custom-finite-matrix_fictitious-play_result.json")
    assert result["terminated_by"] == "iteration_cap"
    assert result["iterations"] == 30
    game, _, _ = embed_matrix_game(json.loads(PENNIES))
    p = mixture_from_payload(result["p_star"])
    q = mixture_from_payload(result["q_star"])
    assert expected_utility(p, q, game) == pytest.approx(result["value"], abs=1e-9)

    rows = read_csv(tmp_path / "custom-finite-matrix_fictitious-play_trace.csv")
    assert len(rows) == 31
    assert float(rows[-1][4]) == pytest.approx(result["value"], abs=1e-12)


def test_blotto_enumeration_full_grid_closes_immediately(tmp_path):
    code = run_cli(
        "run", "--game", "blotto", "--oracle", "enumeration", "--init", "grid",
        "--c", "0.25", "--epsilon", "1e-6", "--outdir", str(tmp_path),
    )
    assert code == 0
    rows = read_csv(tmp_path / "blotto_double-oracle_trace.csv")
    assert len(rows) == 2  # header plus a single iteration
    assert float(rows[1][3]) <= 1e-6 + 1e-9
    result = read_json(tmp_path / "blotto_double-oracle_result.json")
    assert result["value"] == pytest.approx(0.0, abs=1e-9)


def test_runs_are_reproducible(tmp_path):
    args = ("run", "--game", "g1", "--seed", "11", "--epsilon", "1e-3")
    run_cli(*args, "--outdir", str(tmp_path / "a"))
    run_cli(*args, "--outdir", str(tmp_path / "b"))
    rows_a = read_csv(tmp_path / "a" / "g1-polynomial_double-oracle_trace.csv")
    rows_b = read_csv(tmp_path / "b" / "g1-polynomial_double-oracle_trace.csv")
    # identical except the wall-clock column
    assert [r[:-1] for r in rows_a] == [r[:-1] for r in rows_b]


def test_compare_writes_padded_table(tmp_path):
    code = run_cli(
        "compare", "--game", "g1", "--seed", "5", "--epsilon", "1e-4",
        "--max-iters", "40", "--outdir", str(tmp_path),
    )
    assert code == 0
    rows = read_csv(tmp_path / "compare_g1-polynomial.csv")
    assert rows[0] == ["iter", "do_lower", "do_upper", "fp_lower", "fp_upper"]
    assert len(rows) == 41  # fictitious play runs its whole budget
    # once the double-oracle run stops, its columns repeat the final row
    tail = {(r[1], r[2]) for r in rows[-3:]}
    assert len(tail) == 1


def test_compare_is_byte_identical_across_runs(tmp_path):
    args = ("compare", "--game", "g1", "--seed", "9", "--epsilon", "1e-3",
            "--max-iters", "30")
    run_cli(*args, "--out", str(tmp_path / "one.csv"), "--outdir", str(tmp_path))
    run_cli(*args, "--out", str(tmp_path / "two.csv"), "--outdir", str(tmp_path))
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(
        "# comment line\n"
        "game = g1\n"
        "epsilon = 0.5\n"
        f"outdir = {tmp_path / 'from_file'}\n"
    )
    code = run_cli("run", "--config", str(cfg), "--epsilon", "1e-3", "--seed", "2")
    assert code == 0
    result = read_json(tmp_path / "from_file" / "g1-polynomial_double-oracle_result.json")
    assert result["config"]["epsilon"] == 1e-3  # flag beats file
    assert result["config"]["game"] == "g1-polynomial"  # alias canonicalized


def test_environment_outdir_is_weakest(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("DOUBLE_ORACLE_OUTDIR", str(env_dir))
    assert run_cli("run", "--game", "g1", "--seed", "1") == 0
    assert (env_dir / "g1-polynomial_double-oracle_result.json").exists()

    flag_dir = tmp_path / "from_flag"
    assert run_cli("run", "--game", "g1", "--seed", "1", "--outdir", str(flag_dir)) == 0
    assert (flag_dir / "g1-polynomial_double-oracle_result.json").exists()


def test_error_messages_name_the_field(tmp_path, capsys):
    assert run_cli("run", "--game", "nope", "--outdir", str(tmp_path)) == 1
    assert "game:" in capsys.readouterr().err

    assert run_cli("run", "--game", "g1", "--epsilon", "-2",
                   "--outdir", str(tmp_path)) == 1
    assert "epsilon:" in capsys.readouterr().err

    assert run_cli("run", "--game", "matrix", "--outdir", str(tmp_path)) == 1
    assert "matrix:" in capsys.readouterr().err

    # NaN passes a plain `x < 0` check, an infinite epsilon ends on "gap" at
    # once, an infinite resolution leaves a two-point grid, and a negative
    # seed reaches numpy
    for flag, bad, field in [("--epsilon", "nan", "epsilon"),
                             ("--epsilon", "inf", "epsilon"),
                             ("--resolution", "nan", "resolution"),
                             ("--resolution", "inf", "resolution"),
                             ("--seed", "-1", "seed")]:
        assert run_cli("run", "--game", "g1", flag, bad, "--outdir", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}:")

    # an infinite weight passes a plain `w > 0` check
    assert run_cli("run", "--game", "blotto", "--a", "inf,1,1", "--outdir", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: a:")


def test_grid_too_fine_to_build_is_an_error(tmp_path, capsys):
    assert run_cli("run", "--game", "g1", "--resolution", "1e-300",
                   "--outdir", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("error: grid over")


def test_non_lattice_margin_rejected_for_grid_modes(tmp_path, capsys):
    code = run_cli(
        "run", "--game", "blotto", "--c", "0.3", "--init", "grid",
        "--outdir", str(tmp_path),
    )
    assert code == 1
    assert "1/c is not integral" in capsys.readouterr().err


def test_enumeration_oracle_rejects_random_init(tmp_path, capsys):
    code = run_cli(
        "run", "--game", "blotto", "--c", "0.25", "--oracle", "enumeration",
        "--init", "random", "--outdir", str(tmp_path),
    )
    assert code == 1
    assert "init: random starting points leave the allocation lattice" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["0", "-1", "inf", "nan"])
def test_lipschitz_must_be_finite_and_positive(tmp_path, capsys, bad):
    assert run_cli("run", "--game", "g1", "--lipschitz", bad, "--outdir", str(tmp_path)) == 1
    assert "lipschitz: must be finite and > 0" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert run_cli("run", "--config", str(cfg)) == 1
    assert "unknown key" in capsys.readouterr().err


def test_malformed_matrix_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    code = run_cli("run", "--game", "matrix", "--matrix", str(bad),
                   "--outdir", str(tmp_path))
    assert code == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as err:
        main(["run", "--algo", "bogus"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


def test_parser_exposes_both_subcommands():
    parser = make_parser()
    args = parser.parse_args(["run", "--game", "g2", "--max-iters", "5"])
    assert args.command == "run"
    assert args.game == "g2" and args.max_iters == 5
    args = parser.parse_args(["compare", "--game", "g2"])
    assert args.command == "compare" and args.game == "g2"
    with pytest.raises(SystemExit) as err:
        parser.parse_args(["compare", "--algo-a", "fictitious-play"])
    assert err.value.code == 1


# One text per setting, and the value that both its flag and its config key
# must parse it to.
SETTING_TEXTS = {
    "game": ("g2", "g2"),
    "epsilon": ("0.5", 0.5),
    "max_iters": ("7", 7),
    "seed": ("3", 3),
    "resolution": ("0.01", 0.01),
    "lipschitz": ("11", 11.0),
    "oracle": ("enumeration", "enumeration"),
    "n": ("4", 4),
    "a": ("1,2,3", (1.0, 2.0, 3.0)),
    "c": ("0.25", 0.25),
    "init": ("grid", "grid"),
    "matrix": ("m.json", "m.json"),
    "outdir": ("out", "out"),
}


def test_every_setting_is_a_flag_of_both_subcommands_and_a_config_key(tmp_path):
    assert set(SETTING_TEXTS) == {f.name for f in fields(ExperimentConfig)} - {"algorithm"}
    parser = make_parser()
    for name, (text, want) in SETTING_TEXTS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"{name} = {text}\n")
        got = [read_config_file(str(cfg))[name]]
        for command in ("run", "compare"):
            args = parser.parse_args([command, "--" + name.replace("_", "-"), text])
            got.append(getattr(args, name))
        assert got == [want] * 3, name
        assert {type(v) for v in got} == {type(want)}, name
