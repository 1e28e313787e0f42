import json
import re
import subprocess
import sys

import pytest

from chainweight.cli import condition_to_string, main, parse_condition


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "chainweight", *argv],
        capture_output=True,
        text=True,
    )


def strip_timing(raw):
    return re.sub(r'"timing_ms":[0-9.]+', '"timing_ms":0', raw)


def test_parse_condition_grammar():
    from fractions import Fraction

    from chainweight import Antichain, ErdosWindow, IntegerRatio, KatonaGap, RatioLambda

    assert parse_condition("antichain") == Antichain()
    assert parse_condition("erdos:k=2") == ErdosWindow(2)
    assert parse_condition("katona:k=3") == KatonaGap(3)
    assert parse_condition("ratio:lambda=3/2") == RatioLambda(Fraction(3, 2))
    assert parse_condition("intratio:c=2") == IntegerRatio(2)


def test_parse_condition_errors_name_the_token():
    from chainweight.cli import UsageError

    with pytest.raises(UsageError, match="sperner"):
        parse_condition("sperner")
    with pytest.raises(UsageError, match="q=3"):
        parse_condition("erdos:q=3")
    with pytest.raises(UsageError, match="1/2"):
        parse_condition("ratio:lambda=1/2")
    with pytest.raises(UsageError, match="x"):
        parse_condition("katona:k=x")
    # Ranges are checked by the condition types; the parser names the token.
    for token in ("erdos:k=0", "intratio:c=1", "ratio:lambda=-3/-2", "ratio:lambda=3/0"):
        with pytest.raises(UsageError, match=re.escape(token)):
            parse_condition(token)


def test_condition_string_roundtrip():
    for text in (
        "antichain", "erdos:k=2", "katona:k=5", "ratio:lambda=3/2", "ratio:lambda=2/1",
        "intratio:c=4",
    ):
        cond = parse_condition(text)
        assert condition_to_string(cond) == text
        assert parse_condition(condition_to_string(cond)) == cond


def test_bound_command_json():
    result = run_cli("--format", "json", "bound", "--n", "6", "--condition", "katona:k=3")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["command"] == "bound"
    assert report["outputs"]["value"] == "22"
    assert report["outputs"]["witness"] == [0, 3, 6]
    assert report["outputs"]["closed_form"] == "22"
    assert report["outputs"]["closed_form_equal"] is True
    assert report["inputs"]["n"] == 6
    assert report["inputs"]["condition"] == "katona:k=3"


def test_bound_command_examples():
    result = run_cli("--format", "json", "bound", "--n", "4", "--condition", "antichain")
    assert json.loads(result.stdout)["outputs"]["value"] == "6"
    result = run_cli("--format", "json", "bound", "--n", "6", "--condition", "ratio:lambda=3/2")
    report = json.loads(result.stdout)
    assert report["outputs"]["value"] == "35"
    assert report["outputs"]["witness"] == [3, 4]


def test_chains_command_with_levels():
    result = run_cli(
        "--format", "json", "chains",
        "--n", "6", "--condition", "katona:k=3", "--ell", "2", "--levels", "0,3,6",
    )
    report = json.loads(result.stdout)
    assert report["outputs"]["value"] == "41"
    assert report["outputs"]["allowed"] is True


def test_chains_levels_reject_empty_items():
    for levels in ("0,,3,6", "0,3,6,", ",0", ""):
        result = run_cli(
            "chains", "--n", "6", "--condition", "katona:k=3", "--ell", "2", "--levels", levels
        )
        assert result.returncode == 1, levels
        assert result.stdout == ""
        assert "levels" in result.stderr


def test_chains_command_optimizes_without_levels():
    result = run_cli(
        "--format", "json", "chains", "--n", "6", "--condition", "katona:k=3", "--ell", "2"
    )
    report = json.loads(result.stdout)
    assert report["outputs"]["value"] == "60"
    assert report["outputs"]["witness"] == [1, 4]


def test_chains_command_known_optimum_n21():
    result = run_cli(
        "--format", "json", "chains", "--n", "21", "--condition", "katona:k=5", "--ell", "2"
    )
    report = json.loads(result.stdout)
    assert report["outputs"]["witness"] == [2, 7, 14, 19]


def test_chains_budget_exceeded_exit_code():
    result = run_cli(
        "chains", "--n", "10", "--condition", "katona:k=2", "--ell", "2", "--budget", "3"
    )
    assert result.returncode == 3
    assert "budget" in result.stderr
    for bad in ("0", "-5", "x"):
        rejected = run_cli(
            "chains", "--n", "10", "--condition", "katona:k=2", "--ell", "2", "--budget", bad
        )
        assert rejected.returncode == 1
        assert "--budget" in rejected.stderr and "positive integer" in rejected.stderr


def test_verify_command():
    result = run_cli("--format", "json", "verify", "--n", "6", "--condition", "katona:k=3")
    report = json.loads(result.stdout)
    assert result.returncode == 0
    assert report["outputs"]["bound"] == "22"
    assert report["outputs"]["brute"] == "22"
    assert report["outputs"]["equal"] is True


def test_verify_with_ell():
    result = run_cli(
        "--format", "json", "verify", "--n", "4", "--condition", "erdos:k=1", "--ell", "2"
    )
    report = json.loads(result.stdout)
    assert result.returncode == 0
    assert report["outputs"]["chains_equal"] is True


def test_verify_custom_condition(tmp_path):
    doc = {"n": 3, "forbidden": [[0, 1], [1, 2], [2, 3], [0, 3]]}
    path = tmp_path / "cond.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli(
        "--format", "json", "verify", "--n", "3", "--condition", f"custom:file={path}"
    )
    report = json.loads(result.stdout)
    assert result.returncode == 0
    assert int(report["outputs"]["bound"]) >= int(report["outputs"]["brute"])


def test_custom_table_rejects_json_booleans(tmp_path):
    path = tmp_path / "bools.json"
    path.write_text('{"n": true, "forbidden": [[false, true]]}', encoding="utf-8")
    result = run_cli("bound", "--n", "1", "--condition", f"custom:file={path}")
    assert result.returncode == 1
    assert result.stdout == ""
    assert "integer" in result.stderr


def test_verify_family_hex():
    from chainweight import FamilyMask

    fam = FamilyMask.from_levels(6, [1, 4])
    result = run_cli(
        "--format", "json", "verify",
        "--n", "6", "--condition", "katona:k=3", "--family", fam.to_hex(), "--ell", "2",
    )
    report = json.loads(result.stdout)
    assert result.returncode == 0
    assert report["outputs"]["satisfies"] is True
    assert report["outputs"]["family_size"] == str(6 + 15)
    assert report["outputs"]["chain_count"] == "60"
    assert report["outputs"]["within_bound"] is True


def test_verify_cap_requires_flag():
    result = run_cli("verify", "--n", "9", "--condition", "antichain")
    assert result.returncode == 1
    assert "accept-exponential" in result.stderr


def test_reproduce_fixed_witnesses():
    result = run_cli("--format", "json", "reproduce")
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    rows = report["outputs"]["rows"]
    assert report["outputs"]["all_pass"] is True
    assert all(row["pass"] for row in rows)
    by_name = {row["name"]: row for row in rows}
    assert by_name["2-chains in levels {0,3,6} of [6]"]["actual"] == "41"
    assert by_name["2-chains in levels {1,4} of [6]"]["actual"] == "60"
    assert by_name["optimal 2-chain levels, n=21, gap 5"]["actual"] == "2 7 14 19"


def test_reproduce_text_has_row_lines():
    result = run_cli("reproduce")
    assert result.returncode == 0
    assert "rows.0.name" in result.stdout or "2-chains" in result.stdout


def test_json_output_deterministic():
    args = ("--format", "json", "bound", "--n", "10", "--condition", "erdos:k=2")
    first = run_cli(*args)
    second = run_cli(*args)
    assert strip_timing(first.stdout).encode() == strip_timing(second.stdout).encode()


def test_inputs_echo_reparses_identically():
    result = run_cli(
        "--format", "json", "bound", "--n", "7", "--condition", "ratio:lambda=5/3"
    )
    report = json.loads(result.stdout)
    assert parse_condition(report["inputs"]["condition"]) == parse_condition("ratio:lambda=5/3")
    assert report["inputs"]["n"] == 7


def test_usage_errors_exit_1():
    assert run_cli("bound", "--n", "4", "--condition", "nope").returncode == 1
    assert run_cli("bound", "--condition", "antichain").returncode == 1
    assert run_cli("nonsense").returncode == 1


def test_common_flags_accepted_after_subcommand():
    result = run_cli("reproduce", "--format", "json")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["outputs"]["all_pass"] is True
    result = run_cli("bound", "--n", "6", "--condition", "katona:k=3", "--format", "json")
    assert json.loads(result.stdout)["outputs"]["value"] == "22"
    before = run_cli("--format", "json", "bound", "--n", "6", "--condition", "katona:k=3")
    assert strip_timing(before.stdout) == strip_timing(result.stdout)


def test_csv_and_text_formats():
    csv_out = run_cli("--format", "csv", "bound", "--n", "6", "--condition", "katona:k=3")
    assert csv_out.returncode == 0
    assert csv_out.stdout.startswith("key,value")
    assert "value,22" in csv_out.stdout
    text_out = run_cli("--format", "text", "bound", "--n", "6", "--condition", "katona:k=3")
    assert "value: 22" in text_out.stdout
    assert "witness: 0 3 6" in text_out.stdout


def test_threads_flag_does_not_change_results():
    one = run_cli("--format", "json", "--threads", "1", "bound", "--n", "8", "--condition", "erdos:k=2")
    four = run_cli("--format", "json", "--threads", "4", "bound", "--n", "8", "--condition", "erdos:k=2")
    a, b = json.loads(one.stdout), json.loads(four.stdout)
    assert a["outputs"] == b["outputs"]
    for bad in ("0", "-3", "two"):
        rejected = run_cli("--threads", bad, "bound", "--n", "8", "--condition", "erdos:k=2")
        assert rejected.returncode == 1
        assert rejected.stdout == ""
        assert "--threads" in rejected.stderr and "positive integer" in rejected.stderr


def test_threads_env_var_sets_default_and_flag_overrides(monkeypatch):
    import os
    import subprocess

    env = dict(os.environ, CHAINWEIGHT_THREADS="3")
    from_env = subprocess.run(
        [sys.executable, "-m", "chainweight", "--format", "json", "bound",
         "--n", "4", "--condition", "antichain"],
        capture_output=True, text=True, env=env,
    )
    report = json.loads(from_env.stdout)
    assert report["inputs"]["threads"] == 3
    overridden = subprocess.run(
        [sys.executable, "-m", "chainweight", "--format", "json", "--threads", "2",
         "bound", "--n", "4", "--condition", "antichain"],
        capture_output=True, text=True, env=env,
    )
    assert json.loads(overridden.stdout)["inputs"]["threads"] == 2
    for bad in ("abc", "0", "-1"):
        malformed = subprocess.run(
            [sys.executable, "-m", "chainweight", "bound", "--n", "4", "--condition", "antichain"],
            capture_output=True, text=True, env=dict(os.environ, CHAINWEIGHT_THREADS=bad),
        )
        assert malformed.returncode == 1
        assert "CHAINWEIGHT_THREADS" in malformed.stderr


def test_main_callable_directly(capsys):
    code = main(["--format", "json", "bound", "--n", "4", "--condition", "antichain"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"]["value"] == "6"


def test_verify_mismatch_exits_2(monkeypatch, capsys):
    # Fault injection: a brute-force result that disagrees with the bound
    # must surface as a verification mismatch, not a crash.
    import chainweight.cli as cli

    monkeypatch.setattr(cli, "max_family", lambda n, cond, **kw: (10**9, None))
    code = cli.main(["--format", "json", "verify", "--n", "4", "--condition", "antichain"])
    assert code == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["outputs"]["equal"] is False
    assert "mismatch" in captured.err

    # The family path reports its finished record the same way.
    from chainweight import BoundResult

    monkeypatch.setattr(cli, "size_bound", lambda n, cond: BoundResult(0, (), "dp"))
    code = cli.main(["--format", "json", "verify", "--n", "2", "--condition", "antichain",
                     "--family", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["outputs"]["within_bound"] is False
    assert "exceeds the bound" in captured.err


def test_bound_internal_inconsistency_exits_2(monkeypatch, capsys):
    import chainweight.cli as cli

    monkeypatch.setattr(cli, "sperner_bound", lambda n: 0)
    code = cli.main(["bound", "--n", "4", "--condition", "antichain"])
    assert code == 2
    assert "inconsistency" in capsys.readouterr().err
