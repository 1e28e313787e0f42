import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chainweight.cli import main, parse_condition


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
    with pytest.raises(UsageError, match="^antichain takes no parameters, got 'x'$"):
        parse_condition("antichain:x")
    with pytest.raises(UsageError, match=r"^bad condition 'ratio:lambda=3': lambda must look like p/q, got '3'$"):
        parse_condition("ratio:lambda=3")
    # Ranges are checked by the condition types; the parser names the token.
    for token in ("erdos:k=0", "intratio:c=1", "ratio:lambda=-3/-2", "ratio:lambda=3/0"):
        with pytest.raises(UsageError, match=re.escape(token)):
            parse_condition(token)


def test_condition_strings_parse():
    from fractions import Fraction

    from chainweight import Antichain, ErdosWindow, IntegerRatio, KatonaGap, RatioLambda

    for text, cond in (
        ("antichain", Antichain()),
        ("erdos:k=2", ErdosWindow(2)),
        ("katona:k=5", KatonaGap(5)),
        ("ratio:lambda=3/2", RatioLambda(Fraction(3, 2))),
        ("ratio:lambda=2/1", RatioLambda(Fraction(2, 1))),
        ("intratio:c=4", IntegerRatio(4)),
    ):
        assert parse_condition(text) == cond


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


def test_bound_budget_exceeded_exit_code(tmp_path, capsys, monkeypatch):
    # The custom size_bound runs under levelbounds.DEFAULT_NODE_BUDGET: past
    # it bound exits 3 as chains does, with nothing on stdout.  The search
    # on one forbidden pair at n = 40 takes 41 nodes.
    from chainweight import levelbounds

    table = tmp_path / "pair.json"
    table.write_text('{"n": 40, "forbidden": [[0, 1]]}', encoding="utf-8")
    argv = ["bound", "--n", "40", "--condition", f"custom:file={table}"]
    monkeypatch.setattr(levelbounds, "DEFAULT_NODE_BUDGET", 40)
    assert main(argv) == 3
    out = capsys.readouterr()
    assert out.out == "" and "budget exceeded" in out.err
    monkeypatch.setattr(levelbounds, "DEFAULT_NODE_BUDGET", 41)
    assert main(argv) == 0


def test_single_chains_spend_the_budget_on_custom_tables(tmp_path, capsys):
    # At ell = 1 the chain optimum is size_bound's custom search, which
    # takes 1,501 nodes on one forbidden pair at n = 1500: --budget holds it.
    table = tmp_path / "pair.json"
    table.write_text('{"n": 1500, "forbidden": [[0, 1]]}', encoding="utf-8")
    argv = ["--format", "json", "chains", "--n", "1500", "--condition", f"custom:file={table}", "--ell", "1"]
    assert main([*argv, "--budget", "1"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "budget exceeded" in out.err
    assert main([*argv, "--budget", "1501"]) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert outputs["value"] == str(2**1500 - 1)
    assert outputs["witness"] == list(range(1, 1501))


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


def overshoot(fn, attr):
    # fn with its answer's count field raised by one.
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        result.__dict__[attr] += 1
        return result

    return wrapped


def test_verify_holds_custom_tables_to_equality(capsys, monkeypatch):
    # A custom table is chain-dependent like every pairwise size condition,
    # so its size and chain optima equal brute force: verify flags a custom
    # optimum above brute force too.
    import chainweight.cli
    from chainweight import chaincount

    table = Path(__file__).parent / "golden" / "custom.json"
    argv = ["--format", "json", "verify", "--n", "4", "--condition", f"custom:file={table}",
            "--ell", "2"]
    assert main(argv) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert outputs["equal"] is True and outputs["chains_equal"] is True
    with monkeypatch.context() as patched:
        patched.setattr(chainweight.cli, "size_bound", overshoot(chainweight.cli.size_bound, "value"))
        assert main(argv[:-2]) == 2
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert outputs["equal"] is False
    with monkeypatch.context() as patched:
        optimum = overshoot(chaincount.optimal_levels_for_chains, "count")
        patched.setattr(chaincount, "optimal_levels_for_chains", optimum)
        assert main(argv) == 2
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert (outputs["equal"], outputs["chains_equal"]) == (True, False)


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


@pytest.mark.parametrize("text", ["f_f", "+ff", " ff", "-0"])
def test_verify_family_rejects_malformed_hex(text):
    result = run_cli("verify", "--n", "3", "--condition", "antichain", "--family", text)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "hex digits" in result.stderr


CHAINS = ("chains", "--n", "6", "--condition", "katona:k=3", "--ell", "2")


@pytest.mark.parametrize(
    "argv, threads_env",
    [
        (("bound", "--n", "1_0", "--condition", "antichain"), None),
        (("bound", "--n", " 6", "--condition", "antichain"), None),
        (("bound", "--n", "6", "--condition", "katona:k=+3"), None),
        (("bound", "--n", "6", "--condition", "katona:k=\u0663"), None),
        (("bound", "--n", "6", "--condition", "ratio:lambda=+3/2"), None),
        (("bound", "--n", "6", "--condition", "intratio:c=2_0"), None),
        (("chains", "--n", "6", "--condition", "katona:k=3", "--ell", "+2"), None),
        ((*CHAINS, "--budget", "1_000"), None),
        ((*CHAINS, "--levels", " 0, 3"), None),
        ((*CHAINS, "--levels", "0,+3"), None),
        (("verify", "--n", "4", "--condition", "antichain", "--ell", "\u0662"), None),
        (("--threads", " 2", "bound", "--n", "6", "--condition", "antichain"), None),
        (("bound", "--n", "6", "--condition", "antichain"), " 2"),
        (("bound", "--n", "6", "--condition", "antichain"), "+2"),
    ],
    ids=[
        "n-underscore", "n-space", "k-plus", "k-arabic-indic", "lambda-plus", "c-underscore",
        "ell-plus", "budget-underscore", "levels-spaces", "levels-plus", "verify-ell-arabic-indic",
        "threads-space", "threads-env-space", "threads-env-plus",
    ],
)
def test_integers_are_ascii_digits_only(argv, threads_env, capsys, monkeypatch):
    # int() takes signs, spaces, underscores and non-ASCII digits; the CLI
    # takes -?[0-9]+ only, for every integer it reads.
    if threads_env is not None:
        monkeypatch.setenv("CHAINWEIGHT_THREADS", threads_env)
    assert main(list(argv)) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "integer" in out.err


def test_integers_accept_ascii_digits(capsys, monkeypatch):
    monkeypatch.setenv("CHAINWEIGHT_THREADS", "02")
    assert main(["--format", "json", *CHAINS[:-1], "02", "--levels", "1,04", "--budget", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"] == {
        "condition": "katona:k=3", "ell": 2, "levels": [1, 4], "n": 6, "threads": 2,
    }
    assert report["outputs"]["value"] == "60"
    assert main(["bound", "--n", "-1", "--condition", "antichain"]) == 1
    assert "nonnegative" in capsys.readouterr().err


def test_verify_cap_requires_flag():
    result = run_cli("verify", "--n", "9", "--condition", "antichain")
    assert result.returncode == 1
    assert "accept-exponential" in result.stderr


def test_verify_past_the_family_cap_exits_1(capsys):
    for extra in ([], ["--ell", "2"]):
        argv = ["verify", "--n", "25", "--condition", "antichain", "--accept-exponential"]
        assert main(argv + extra) == 1
        assert "n <= 20" in capsys.readouterr().err


def test_verify_past_the_adjacency_limit_exits_1(capsys, monkeypatch):
    from chainweight import families

    def no_build(cond, n):
        raise AssertionError(f"adjacency built at n={n}")

    monkeypatch.setattr(families, "level_conflicts", no_build)
    for extra in ([], ["--ell", "2"]):
        argv = ["verify", "--n", "17", "--condition", "antichain", "--accept-exponential"]
        assert main(argv + extra) == 1
        assert "needs about 4 GiB" in capsys.readouterr().err


def test_verify_checks_ell_before_any_work(capsys, monkeypatch):
    from chainweight import families

    def no_brute_force(*args, **kwargs):
        raise AssertionError("max_family ran")

    monkeypatch.setattr(families, "max_family", no_brute_force)
    assert main(["verify", "--n", "7", "--condition", "katona:k=3", "--ell", "0"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "--ell" in out.err and "positive integer" in out.err
    assert main(["verify", "--n", "6", "--condition", "katona:k=3", "--ell", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert f"n <= {families.CHAIN_OPTIMIZE_MAX_N}" in out.err


def test_chains_past_n_plus_one_answers_without_searching(capsys, monkeypatch):
    # The window scan and the level search both start from the binomial rows,
    # so a row built at all means the ell > n + 1 answer was missed.
    from chainweight import chaincount

    def no_rows(*args):
        raise AssertionError("binomial rows built")

    monkeypatch.setattr(chaincount, "binomial_row", no_rows)
    for condition in ("antichain", "katona:k=3"):
        argv = ["--format", "json", "chains", "--n", "10", "--condition", condition,
                "--ell", "1000000000"]
        assert main(argv) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert outputs["value"] == "0"
        assert outputs["witness"] == []


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
    from chainweight import families

    monkeypatch.setattr(families, "max_family", lambda n, cond, **kw: (10**9, None))
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


def test_reproduce_mismatch_exits_2(monkeypatch, capsys):
    import chainweight.cli as cli

    row = {"name": "a failing witness", "expected": "1", "actual": "2", "pass": False}
    monkeypatch.setattr(cli, "_reproduction_rows", lambda: [row])
    assert cli.main(["--format", "json", "reproduce"]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["outputs"]["all_pass"] is False
    assert "verification mismatch" in captured.err


@pytest.mark.parametrize(
    "before, after, threads, fmt",
    [
        ([], [], 5, "text"),
        (["--threads", "2"], [], 2, "text"),
        ([], ["--threads", "3"], 3, "text"),
        (["--threads", "2"], ["--threads", "3"], 3, "text"),
        (["--format", "csv"], ["--format", "json"], 5, "json"),
    ],
    ids=["defaults", "threads-before", "threads-after", "threads-both", "format-both"],
)
def test_common_flags_parse_on_either_side_of_the_subcommand(
    before, after, threads, fmt, capsys, monkeypatch
):
    # A subparser must neither overwrite a value given before the subcommand
    # with its own default nor lose one given after it.
    monkeypatch.setenv("CHAINWEIGHT_THREADS", "5")
    assert main([*before, "bound", "--n", "4", "--condition", "antichain", *after]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out)["inputs"]["threads"] == threads
    else:
        assert out.startswith("command: bound\n")
        assert f"\nthreads: {threads}\n" in out


@pytest.mark.parametrize("argv", [[], ["bound"], ["chains"], ["verify"], ["reproduce"]],
                         ids=["main", "bound", "chains", "verify", "reproduce"])
def test_help_lists_the_common_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--threads THREADS" in out
    assert "--format {json,csv,text}" in out


@pytest.mark.parametrize(
    "argv",
    [["reproduce"], ["bound", "--n", "6", "--condition", "antichain"]],
    ids=["reproduce", "bound"],
)
def test_closed_stdout_keeps_the_exit_code(argv):
    # A reader that goes away before the report is written (`chainweight
    # reproduce | true`) is not a usage error: no traceback, and the command's
    # own exit code.
    proc = subprocess.Popen(
        [sys.executable, "-m", "chainweight", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def _integer_argv(flag, text):
    chains = ["chains", "--n", "12", "--condition", "katona:k=3"]
    if flag == "--ell":
        return [*chains, "--ell", text, "--levels", "1,4"]
    if flag == "--budget":
        return [*chains, "--ell", "2", "--levels", "1,4", "--budget", text]
    if flag == "--levels":
        return [*chains, "--ell", "2", "--levels", text]
    if flag == "--threads":
        return ["--threads", text, "bound", "--n", "4", "--condition", "antichain"]
    return ["bound", "--n", "4", "--condition", "antichain"]


COUNT_FLAGS = ("--ell", "--budget", "--threads", "CHAINWEIGHT_THREADS")
NOT_INTEGERS = ["+5", " 5", "5 ", "1_0", "\u0663", "2.0", ""]
ACCEPTED = ["1", "7", "007", "10"]
REFUSED_COUNTS = ["0", "00", "-0", "-1", *NOT_INTEGERS]
REFUSED_LEVELS = [*NOT_INTEGERS, "1,,2", "1,", ",1"]


@pytest.mark.parametrize(
    "flag, text, accepted",
    [
        *((flag, text, True) for flag in (*COUNT_FLAGS, "--levels") for text in ACCEPTED),
        ("--levels", "0,3,-1", True),
        *((flag, text, False) for flag in COUNT_FLAGS for text in REFUSED_COUNTS),
        *(("--levels", text, False) for text in REFUSED_LEVELS),
    ],
)
def test_integer_spellings(flag, text, accepted, capsys, monkeypatch):
    # Counts take 0*[1-9][0-9]* and levels -?[0-9]+(,-?[0-9]+)*: ASCII digits,
    # no plus sign, spaces, underscores or empty items.
    if flag == "CHAINWEIGHT_THREADS":
        monkeypatch.setenv(flag, text)
    code = main(["--format", "json", *_integer_argv(flag, text)])
    out, err = capsys.readouterr()
    if not accepted:
        assert code == 1
        assert out == ""
        if flag == "--levels":
            message = f"levels must be comma-separated integers with no empty items, got '{text}'"
        elif flag == "CHAINWEIGHT_THREADS":
            message = f"CHAINWEIGHT_THREADS must be a positive integer, got '{text}'"
        else:
            message = f"argument {flag}: must be a positive integer, got '{text}'"
        assert err == f"error: {message}\n"
    elif text == "0,3,-1":
        # The spelling parses; the library refuses the negative level.
        assert code == 1
        assert err == "error: levels must be nonnegative, got (-1, 0, 3)\n"
    else:
        assert code == 0
        inputs = json.loads(out)["inputs"]
        if flag == "--levels":
            assert inputs["levels"] == [int(text)]
        elif flag == "--ell":
            assert inputs["ell"] == int(text)
        elif flag != "--budget":
            assert inputs["threads"] == int(text)
