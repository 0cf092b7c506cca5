import importlib.util
import json
from pathlib import Path

from double_oracle import OracleAnswer, allocation, cli
from double_oracle.cli import RUN_HEADER, ExperimentConfig

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paper_report.py"


def load_report():
    spec = importlib.util.spec_from_file_location("paper_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_matches_solve_and_flags_a_low_milp_value(tmp_path, monkeypatch, capsys):
    report = load_report()
    solved = []

    def recording_solve(cfg, problem):
        out = cli.solve(cfg, problem)
        solved.append((cfg, out[2], out[3]))
        return out

    # The MILP falls short of the lattice, which no exact best response can.
    monkeypatch.setattr(report, "solve", recording_solve)
    low = OracleAnswer(allocation((1.0, 0.0, 0.0)), -2.0)
    monkeypatch.setattr(report, "milp_best_response", lambda mix, game: low)
    assert report.main(["--outdir", str(tmp_path)]) == 1
    assert (tmp_path / "report.md").read_text() == capsys.readouterr().out
    data = json.loads((tmp_path / "report.json").read_text())

    assert data["errors"] == {}
    assert [c["ok"] for c in data["spot_check"]] == [False] * 3
    rows = data["runs"]
    assert len(rows) == len(solved) == 6
    one_dim = [
        ExperimentConfig(game=game, algorithm=algo, epsilon=1e-6, max_iters=200, seed=0)
        for game in ("g1-polynomial", "g2-townsend")
        for algo in ("double-oracle", "fictitious-play")
    ]
    assert [cfg for cfg, _, _ in solved[:4]] == one_dim
    blotto = [(cfg.game, cfg.oracle, cfg.init, cfg.c, cfg.epsilon) for cfg, _, _ in solved[4:]]
    assert blotto == [("blotto", "enumeration", init, 0.0625, 1e-6) for init in ("grid", "corners")]
    for row, (cfg, trace, ended) in zip(rows, solved):
        assert (row["game"], row["algorithm"]) == (cfg.game, cfg.algorithm)
        assert row["terminated_by"] == ended
        assert row["iterations"] == len(trace)
        assert row["gap"] == trace[-1].gap
        assert len(row["trace"]) == len(trace)
        assert list(row["trace"][-1]) == RUN_HEADER
