import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"
_spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


@pytest.mark.parametrize(
    "argv",
    [["transcription", "--near"], ["closed", "--seed", "1"], ["ops", "--reverse"], ["h_only", "--near"],
     ["mc", "--seed", "1"], []],
    ids=["transcription-near", "closed-seed", "ops-reverse", "h_only-near", "mc-seed", "no-sweep"],
)
def test_flag_of_another_sweep_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        sweep.build_parser().parse_args(["checkout", *argv])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_each_flag_on_its_own_sweep():
    parse = sweep.build_parser().parse_args
    assert parse(["c", "closed", "--near"]).near
    assert parse(["c", "h_only", "--reverse"]).reverse
    assert parse(["c", "ops", "--seed", "13"]).seed == 13
    assert parse(["c", "ops"]).seed == 1
    assert parse(["c", "transcription"]).points is sweep.transcription
    assert parse(["c", "mc"]).points is sweep.mc


def test_failed_point_is_its_keys_plus_the_error():
    def solve(keys):
        raise ZeroDivisionError("no strike")

    keys = {"set": "tanh", "model": 0, "x": 0.3}
    assert sweep._row(keys, solve) == {**keys, "error": "ZeroDivisionError", "message": "no strike"}
    assert list(sweep._row(keys, solve)) == ["set", "model", "x", "error", "message"]


def test_solved_point_is_what_solve_returns():
    assert sweep._row({"x": 0.3}, lambda keys: {**keys, "value": "1.0"}) == {"x": 0.3, "value": "1.0"}


def test_float_diagnostics_print_as_repr():
    diagnostics = {"x": 0.5, "u_g": 1.0 / 3.0, "kernel_calls": 14, "asset_branch": "free", "fallback": False}
    assert sweep._reprs(diagnostics) == {
        "x": "0.5", "u_g": "0.3333333333333333", "kernel_calls": 14, "asset_branch": "free", "fallback": False,
    }
    assert list(sweep._reprs(diagnostics, skip=("x",))) == ["u_g", "kernel_calls", "asset_branch", "fallback"]


def test_mc_sweep_rows_repeat_bit_for_bit(monkeypatch, capsys):
    import varsmile as vs

    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the checkout's src first
    monkeypatch.setattr(sweep, "MC_SHAPES", ((12, 7, 7), (4200, 3, 1)))
    root = SCRIPT.parent.parent
    outs = []
    for _ in range(2):
        assert sweep.main([str(root), "mc"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    rows = json.loads(outs[0])
    assert [(r["model"], r["rho"], r["paths"]) for r in rows] == [
        (m, rho, paths) for m in ("tanh", "kinked") for rho in sweep.MC_RHOS for paths in (12, 4200)
    ]
    assert all("error" not in r and len(r["smile"]) == len(sweep.MC_XS) for r in rows)
    model = vs.load_model(root / "models" / "tanh.json").with_rho(0.7)
    rv = vs.simulate_realized_variance(model, vs.McConfig(n_paths=4200, n_steps=3, seed=7, maturity=1.0 / 12.0))
    assert rows[3]["rv"] == hashlib.sha1(rv.tobytes()).hexdigest()
