import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"
_spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


@pytest.mark.parametrize(
    "argv",
    [["transcription", "--near"], ["closed", "--seed", "1"], ["ops", "--reverse"], ["h_only", "--near"], []],
    ids=["transcription-near", "closed-seed", "ops-reverse", "h_only-near", "no-sweep"],
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
