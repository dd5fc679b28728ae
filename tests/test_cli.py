"""Command-line interface: parsing, records, determinism, exit codes."""

import argparse
import csv
import io
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import momentbounds
from momentbounds import MomentResult, bounds, cli, moments
from momentbounds.cli import main
from momentbounds.testfunc import NaiveTestFunction, from_spec_string


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_records(out: str):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


SRC = str(Path(momentbounds.__file__).resolve().parents[1])


def test_cli_import_leaves_quadpack_and_splines_out():
    # bound, moment and table are numpy-only: after running them the process
    # has loaded neither scipy nor a process pool
    code = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import momentbounds.cli as cli
runs = [
    ["bound", "--family", "so-even", "--ranks", "4,6", "--method", "moment4",
     "--testfn", "naive:v=1/3", "--regime", "with_R"],
    ["moment", "--family", "so-even", "--testfn", "naive:v=1/3",
     "--testfn", "naive:v=1/4", "--regime", "with_R"],
    ["table", "T1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
heavy = ("scipy", "multiprocessing", "concurrent.futures.process")
print(codes, sorted(m for m in sys.modules if m.split(".")[0] in heavy or m in heavy))
"""
    out = subprocess.run(
        [sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[0, 0, 0] []"


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--family", "so-even", "--rank", "100", "--support", "1/4",
         "--basis", "cos:dim=2:half=1/8", "--basis", "fixed:naive:v=1/4",
         "--regime", "mock_gaussian", "--restarts", "1", "--max-evals", "10"],
        ["rmt-verify", "--group", "so-even", "--N", "10", "--samples", "100",
         "--testfn", "naive:v=1/3", "--orders", "2,3", "--seed", "12", "--workers", "2"],
    ],
)
def test_scipy_commands_run_in_a_fresh_process(argv):
    # optimize and rmt-verify (with a process pool) import scipy when they run
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import momentbounds.cli as cli; "
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    done = subprocess.run([sys.executable, "-c", code, SRC, *argv], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")


# ---- test-function spec parsing ----


def test_parse_testfn_naive():
    tf = from_spec_string("naive:v=1/3")
    assert isinstance(tf, NaiveTestFunction)
    assert tf.v == pytest.approx(1.0 / 3.0)


def test_parse_testfn_generator():
    tf = from_spec_string("gen:sinx2:half=1/8")
    assert tf.support_bound == pytest.approx(0.25)


def test_parse_testfn_rejects_zero_v():
    with pytest.raises(ValueError):
        from_spec_string("naive:v=0")


# ---- bound command ----


def test_bound_moment_command(capsys):
    code, out, err = run_cli(
        [
            "bound",
            "--family",
            "so-even",
            "--rank",
            "20",
            "--method",
            "moment4",
            "--testfn",
            "naive:v=1/3",
            "--regime",
            "with_R",
        ],
        capsys,
    )
    assert code == 0, err
    records = parse_records(out)
    assert len(records) == 1
    assert records[0]["upper_bound"] == pytest.approx(4.49988e-6, rel=1e-4)


def test_bound_level1_reference_multiple_ranks(capsys):
    code, out, _ = run_cli(
        ["bound", "--family", "so-even", "--ranks", "6,8,10", "--method", "level1"],
        capsys,
    )
    assert code == 0
    values = [r["upper_bound"] for r in parse_records(out)]
    assert values == pytest.approx([0.144090, 0.1080675, 0.086454], rel=1e-4)


def test_bound_parity_error_exit(capsys):
    code, out, err = run_cli(
        [
            "bound",
            "--family",
            "so-odd",
            "--rank",
            "6",
            "--method",
            "moment4",
            "--testfn",
            "naive:v=1/3",
            "--regime",
            "with_R",
        ],
        capsys,
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "parity-mismatch"


def test_bound_negative_moment_error_exit(capsys, monkeypatch):
    def negative_moment(request):
        return MomentResult(-1e-20, -1e-20, 0.0, 1, request.regime)

    monkeypatch.setattr(bounds, "centered_moment", negative_moment)
    code, out, err = run_cli(
        [
            "bound",
            "--family",
            "so-even",
            "--rank",
            "20",
            "--method",
            "moment4",
            "--testfn",
            "naive:v=1/3",
            "--regime",
            "with_R",
        ],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "uncertified-bound"


@pytest.mark.parametrize(
    "testfn, rank, method, regime, error, reason",
    [
        ("gen:cos:1e-40:half=1/6", "20", "moment4", "with_R", "uncertified-bound",
         "denominator 1.12973e-319"),
        ("gen:cos:1e-60:half=1/6", "20", "moment4", "with_R", "uncertified-bound",
         "denominator 0.0"),
        ("gen:cos:1e-40,3e-41,-2e-41:half=1/20", "30", "moment2m:4", "mock_gaussian",
         "uncertified-bound", "denominator 0.0"),
        ("gen:cos:1e160:half=1/6", "20", "moment4", "with_R", "invalid-input",
         "generator overflows"),
        ("gen:cos:1e-200:half=1/6", "20", "moment4", "with_R", "invalid-input",
         "generator underflows"),
        ("gen:cos:1e60:half=1/6", "20", "moment4", "with_R", "uncertified-bound",
         "denominator inf"),
        ("gen:cos:3e39,-2.1573e39:half=1/6", "4", "moment4", "with_R", "uncertified-bound",
         "overflows"),
    ],
)
def test_generator_scale_past_the_double_range_is_one_error_line(
    testfn, rank, method, regime, error, reason
):
    # a fresh process, so a floating-point warning would reach stderr
    argv = ["bound", "--family", "so-even", "--rank", rank, "--method", method,
            "--testfn", testfn, "--regime", regime]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import momentbounds.cli as cli; "
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    done = subprocess.run([sys.executable, "-c", code, SRC, *argv], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "")
    (line,) = done.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == error and reason in record["message"], record


@pytest.mark.parametrize(
    "method, count",
    [("level1", 1), ("level2", 2), ("moment4", 1)],
)
def test_naive_v_past_the_double_range_is_one_error_line(method, count):
    # 1/v = 1e320 overflows: refused at construction, before any bound, with
    # no record and, in a fresh process, no floating-point warning
    argv = ["bound", "--family", "so-even", "--rank", "20", "--method", method]
    argv += ["--testfn", "naive:v=1e-320"] * count
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import momentbounds.cli as cli; "
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    done = subprocess.run([sys.executable, "-c", code, SRC, *argv], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "")
    (line,) = done.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "invalid-input", record
    assert "1/v in the normal double range" in record["message"], record


@pytest.mark.parametrize(
    "regime, reason",
    [
        ("with_R", "moment of gen:cos:1e+60:half=0.16666666666666666 overflows"),
        ("mock_gaussian", "moment inf of gen:cos:1e+60:half=0.16666666666666666 is not finite"),
    ],
)
def test_moment_past_the_double_range_is_one_error_line(regime, reason):
    # four slots of a generator scaled by 1e60: R overflows on the way (with_R)
    # or the matching sum is inf (mock_gaussian); moment refuses it as bound
    # does, with no record and, in a fresh process, no floating-point warning
    argv = ["moment", "--family", "so-even", "--regime", regime]
    argv += ["--testfn", "gen:cos:1e60:half=1/6"] * 4
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import momentbounds.cli as cli; "
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    done = subprocess.run([sys.executable, "-c", code, SRC, *argv], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "")
    (line,) = done.stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "uncertified-bound" and reason in record["message"], record


NAIVE_SWEEP = ["bound", "--method", "moment4", "--testfn", "naive:v=1/3", "--regime", "with_R"]


@pytest.mark.parametrize(
    "family,ranks,fmt",
    [
        ("so-even", "4,6,8,10,12", "records"),
        ("so-odd", "9,5,7", "records"),
        ("so-even", "8,4,6", "csv"),
    ],
)
def test_bound_ranks_compute_one_moment(capsys, moment_calls, family, ranks, fmt):
    args = NAIVE_SWEEP + ["--family", family, "--format", fmt]
    code, out, err = run_cli(args + ["--ranks", ranks], capsys)
    assert (code, err) == (0, "")
    assert len(moment_calls) == 1
    singles = [run_cli(args + ["--rank", r], capsys) for r in ranks.split(",")]
    assert all(c == 0 for c, _, _ in singles)
    if fmt == "csv":  # one header, then a row per rank
        expected = singles[0][1] + "".join(o.split("\n", 1)[1] for _, o, _ in singles[1:])
    else:
        expected = "".join(o for _, o, _ in singles)
    assert out == expected


def test_bound_ranks_error_names_the_failing_rank(capsys):
    code, out, err = run_cli(NAIVE_SWEEP + ["--family", "so-even", "--ranks", "6,2"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "invalid-input",
        "message": "rank 2 is below the minimum usable rank c = 4 of "
        "naive:v=0.3333333333333333 (the per-zero margin must stay positive)",
    }
    code, out, err = run_cli(NAIVE_SWEEP + ["--family", "so-even", "--ranks", "6,5"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "parity-mismatch",
        "message": "rank 5 has the wrong parity for so-even: the even family admits only "
        "even central vanishing orders and the odd family only odd ones",
    }


def test_bound_refuses_a_repeated_rank(capsys, moment_calls):
    # the rank's record would print twice; refused before the moment
    code, out, err = run_cli(NAIVE_SWEEP + ["--family", "so-even", "--ranks", "4,4"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "invalid-input", "message": "rank 4 is repeated in ranks [4, 4]"
    }
    assert moment_calls == []


@pytest.mark.parametrize("method,count", [("level1", 2), ("level2", 3), ("moment4", 3)])
def test_bound_refuses_surplus_testfn(capsys, method, count):
    argv = ["bound", "--family", "so-even", "--ranks", "6,8", "--method", method]
    code, out, err = run_cli(argv + ["--testfn", "naive:v=1/3"] * count, capsys)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "invalid-input"
    assert error["message"].startswith(f"{method} needs") and error["message"].endswith(f"got {count}")


_LEVEL2_WIDE = ("the two-level expectation needs transform supports within 1; "
                "naive:v=1.5 has support 1.5")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--ranks", "4", "--method", "level1", "--testfn", "naive:v=3"],
         "the one-level bound needs a transform support within 2; naive:v=3.0 has support 3"),
        (["--rank", "6", "--method", "level2", "--testfn", "naive:v=3/2"], _LEVEL2_WIDE),
        (["--rank", "6", "--method", "level2", "--testfn", "naive:v=1/2",
          "--testfn", "naive:v=3/2"], _LEVEL2_WIDE),
    ],
)
def test_level_bounds_past_their_support_range_are_support_regime(capsys, args, message):
    # one error line and no record: these printed 0.1528 (level1) and
    # 0.00617 (level2, rank 6), below the published optima 0.216135 and
    # 0.0157687 over admissible supports
    code, out, err = run_cli(["bound", "--family", "so-even", *args], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "support-regime", "message": message}


@pytest.mark.parametrize(
    "args, bound",
    [
        (["--method", "level1", "--testfn", "naive:v=2"], 7 / 32),  # E_1 = 7/8
        (["--method", "level2", "--testfn", "naive:v=1"], 5 / 96),  # E_2 = 5/12
    ],
)
def test_level_bounds_at_the_end_of_their_support_range_print(capsys, args, bound):
    code, out, err = run_cli(["bound", "--family", "so-even", "--rank", "4", *args], capsys)
    assert (code, err) == (0, "")
    assert parse_records(out)[0]["upper_bound"] == pytest.approx(bound, rel=1e-15)


_GRAMMAR = ("(expected one of: naive:v=<rational> | gen:sinx2:half=<rational> | "
            "gen:cos:<c0,c1,...>:half=<rational> | gen:poly:<c0,c1,...>:half=<rational>)")


@pytest.mark.parametrize(
    "spec, message",
    [
        # text the grammar does not match: the grammar, and the field's reason
        ("naive:v=oops", f"cannot parse test function spec 'naive:v=oops' {_GRAMMAR}: "
                         "Invalid literal for Fraction: 'oops'"),
        ("naive:v=abc", f"cannot parse test function spec 'naive:v=abc' {_GRAMMAR}: "
                        "Invalid literal for Fraction: 'abc'"),
        ("gen:cos:1:2:half=1/8", f"cannot parse test function spec 'gen:cos:1:2:half=1/8' {_GRAMMAR}"),
        # well-formed specs that their constructors refuse: the spec and the reason
        ("gen:sinx2:half=2", "test function spec 'gen:sinx2:half=2' is refused: sin-of-square "
                             "needs half_support <= 1, got 2.0"),
        ("naive:v=0", "test function spec 'naive:v=0' is refused: naive test function needs "
                      "v > 0, got 0.0"),
        ("gen:poly:1e300,1e300:half=1/6", "test function spec 'gen:poly:1e300,1e300:half=1/6' "
                                          "is refused: generator overflows"),
    ],
)
def test_bound_malformed_testfn(capsys, spec, message):
    code, out, err = run_cli(
        ["bound", "--family", "so-even", "--rank", "6", "--testfn", spec],
        capsys,
    )
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "invalid-input"
    assert error["message"].startswith(message), error["message"]
    assert from_spec_string.cache_info().currsize == 0  # a refusal is not kept


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--family", "so-even", "--rank", "4", "--method", "level1",
         "--testfn", "gen:sinx2:half=2"],
        ["moment", "--family", "so-even", "--regime", "with_R",
         *["--testfn", "gen:sinx2:half=3/2"] * 2],
        ["rmt-verify", "--group", "so-even", "--N", "10", "--samples", "100",
         "--testfn", "gen:sinx2:half=2", "--orders", "2"],
        ["optimize", "--family", "so-even", "--rank", "100", "--support", "4",
         "--basis", "sinx2:half=2", "--regime", "mock_gaussian"],
    ],
)
def test_sin_of_square_past_half_one_is_invalid_input_at_build(capsys, monkeypatch, argv):
    # its Taylor polynomial would cancel beyond roundoff: refused by the
    # generator spec, before any basis table
    def refuse(*args):
        raise AssertionError("built a basis table")

    monkeypatch.setattr(momentbounds.testfunc, "_basis_tables", refuse)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "invalid-input"
    assert "sin-of-square needs half_support <= 1" in error["message"]


# ---- moment command ----


def test_moment_command(capsys):
    code, out, _ = run_cli(
        [
            "moment",
            "--family",
            "so-odd",
            "--testfn",
            "naive:v=1/3",
            "--testfn",
            "naive:v=1/3",
            "--testfn",
            "naive:v=1/3",
            "--testfn",
            "naive:v=1/3",
            "--regime",
            "with_R",
        ],
        capsys,
    )
    assert code == 0
    rec = parse_records(out)[0]
    assert rec["value"] == pytest.approx(1.0 / 3.0 - 1.0 / 5040.0, rel=1e-6)
    assert rec["sign_applied"] == -1


@pytest.mark.parametrize("argv, specs", [
    # sigma2 of this pair differs in the last bit between its argument orders
    (["moment", "--family", "so-even", "--regime", "with_R"],
     ["gen:poly:1,0,0,0,0,0,-7/3:half=2/5", "gen:poly:-2,1,1/4:half=1/8"]),
    # level2 reads the pair term and R_2 of the pair, each order-sensitive in the last bit
    (["bound", "--family", "so-odd", "--ranks", "5,7", "--method", "level2"],
     ["gen:poly:1,-3,20,0.5:half=0.3", "gen:sinx2:half=1/8"]),
    # four slots: the matching sum's groups and the denominator's product
    # over them round differently in different orders
    (["bound", "--family", "so-even", "--ranks", "20,28,36,44,52", "--method", "moment2m:4",
      "--regime", "mock_gaussian"],
     ["naive:v=1/7", "gen:poly:1,-2,1/2:half=1/12", "gen:cos:1,0.3,-0.2:half=1/14",
      "gen:sinx2:half=1/11"]),
])
def test_records_do_not_depend_on_the_testfn_order(argv, specs, capsys):
    # every multi-function sum takes its functions in spec order, so each
    # order of the --testfn flags prints the same records but for their
    # test_functions lists, which keep the order given
    seen = set()
    for order in itertools.permutations(specs):
        code, out, err = run_cli(argv + [a for spec in order for a in ("--testfn", spec)], capsys)
        assert (code, err) == (0, "")
        records = parse_records(out)
        for rec in records:
            labels = rec.pop("test_functions")
            assert labels == [from_spec_string(spec).spec_string for spec in order]
        seen.add(json.dumps(records))
    assert len(seen) == 1


def test_repeated_testfn_specs_share_one_function(capsys, monkeypatch):
    # four equal specs are built once and are one function to the matching
    # sum: one group of four, one sigma2 call, and the record that four
    # separately built functions give; a bound builds each distinct spec
    # once, in the order given, and its repeated slots hold that one function
    argv = ["moment", "--family", "so-even", "--regime", "with_R"]
    argv += ["--testfn", "naive:v=1/3"] * 4
    counts, pairs, built, slots = [], [], [], []
    hafnian, sigma2 = moments._hafnian, moments.sigma2
    make_naive, bound_moment = momentbounds.testfunc.make_naive, cli.bound_moment
    monkeypatch.setattr(moments, "_hafnian", lambda a, c: counts.append(list(c)) or hafnian(a, c))
    monkeypatch.setattr(moments, "sigma2", lambda a, b: pairs.append((a, b)) or sigma2(a, b))
    monkeypatch.setattr(momentbounds.testfunc, "make_naive",
                        lambda v: built.append(v) or make_naive(v))
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert (built, counts, len(pairs)) == ([1.0 / 3.0], [[4]], 1)
    separate = tuple(from_spec_string.__wrapped__("naive:v=1/3") for _ in range(4))
    family = momentbounds.SymmetryGroup.SO_EVEN
    request = momentbounds.MomentRequest(separate, family, regime="with_R")
    moments._r_term.cache_clear()
    momentbounds.testfunc._pair_integral.cache_clear()
    assert parse_records(out)[0]["value"] == momentbounds.centered_moment(request).value
    built.clear()
    monkeypatch.setattr(cli, "bound_moment",
                        lambda tfs, *a, **k: slots.append(tfs) or bound_moment(tfs, *a, **k))
    specs = ["naive:v=1/5", "naive:v=1/6", "naive:v=1/5"]
    argv = ["bound", "--family", "so-even", "--rank", "12", "--method", "moment2m:3"]
    assert run_cli(argv + [a for s in specs for a in ("--testfn", s)], capsys)[0] == 0
    assert built == [1.0 / 5.0, 1.0 / 6.0]
    assert slots[0][0] is slots[0][2] and slots[0][0] is not slots[0][1]


# One op of each kind the benchmark's workloads run: a table, a with_R rank
# sweep, a 10-slot R, a 14-slot matching sum, a level-2 pair, a sin(t^2)
# sweep and the README search; and a two-slot moment that reads sigma2 and R
# of the level-2 pair, whose pair term the level-2 bound reads.
_SHARED_OPS = [
    ["table", "T1"],
    ["bound", "--family", "so-even", "--ranks", "4,6,8,10,12", "--method", "moment4",
     "--testfn", "naive:v=1/3", "--regime", "with_R"],
    ["moment", "--family", "so-even", "--regime", "with_R",
     *[a for q in range(10, 20) for a in ("--testfn", f"naive:v=1/{q}")]],
    ["moment", "--family", "so-odd", "--regime", "mock_gaussian",
     *[a for spec in [f"naive:v=1/{q}" for q in range(10, 17)]
       + ["gen:cos:1:half=1/20", "gen:cos:1,0.3:half=1/20", "gen:poly:1,-2:half=1/20",
          "gen:cos:1,-0.2,0.1:half=1/20", "gen:poly:1,0,-50:half=1/20",
          "gen:cos:1,0.5:half=1/20", "gen:poly:2,3:half=1/20"]
       for a in ("--testfn", spec)]],
    ["bound", "--family", "so-even", "--ranks", "6,8,10", "--method", "level2",
     "--testfn", "naive:v=1/3", "--testfn", "naive:v=1/2"],
    ["moment", "--family", "so-even", "--regime", "with_R",
     "--testfn", "naive:v=1/3", "--testfn", "naive:v=1/2"],
    ["bound", "--family", "so-even", "--ranks", "12,14", "--method", "moment2m:3",
     "--testfn", "gen:sinx2:half=1/10", "--regime", "with_R"],
    ["optimize", "--family", "so-even", "--rank", "100", "--support", "1/4",
     "--basis", "cos:dim=4:half=1/8", "--basis", "fixed:naive:v=1/4",
     "--regime", "mock_gaussian", "--restarts", "2", "--max-evals", "30", "--seed", "1"],
]


def test_records_do_not_depend_on_what_ran_before(capsys, clear_memos):
    # each op's exit code, stdout and stderr on empty memos, then every op in
    # one process, forward and then in reverse, reading what the others kept
    alone = []
    for argv in _SHARED_OPS:
        clear_memos()
        alone.append(run_cli(argv, capsys))
    assert all(code == 0 and out and not err for code, out, err in alone)
    clear_memos()
    order = list(range(len(_SHARED_OPS)))
    for i in order + order[::-1]:
        assert run_cli(_SHARED_OPS[i], capsys) == alone[i], _SHARED_OPS[i]


# ---- table command ----


def test_table_t2(capsys):
    code, out, _ = run_cli(["table", "T2"], capsys)
    assert code == 0
    records = parse_records(out)
    assert len(records) == 15  # 5 ranks x 3 columns
    assert all(r["within_tolerance"] for r in records)
    cell = next(r for r in records if r["rank"] == 20 and r["column"] == "moment4_naive")
    assert cell["computed"] == pytest.approx(4.49988e-6, rel=1e-4)
    assert abs(cell["rel_dev"]) <= 1e-4


def test_round_trip_and_determinism(tmp_path, capsys):
    args = [
        "bound",
        "--family",
        "so-even",
        "--ranks",
        "6,8",
        "--method",
        "moment4",
        "--testfn",
        "naive:v=1/3",
        "--regime",
        "with_R",
    ]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2  # byte-identical
    # every emitted record re-parses and re-serializes identically
    for line in out1.splitlines():
        record = json.loads(line)
        assert json.dumps(record, sort_keys=True) == line


def test_out_file_with_csv_mirror(tmp_path, capsys):
    out_path = tmp_path / "bounds.jsonl"
    code, _, _ = run_cli(
        [
            "bound",
            "--family",
            "so-even",
            "--rank",
            "6",
            "--method",
            "level1",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert records[0]["method"] == "level1"
    mirror = out_path.with_suffix(".jsonl.csv")
    assert mirror.exists()
    header = mirror.read_text().splitlines()[0]
    assert "upper_bound" in header


def test_csv_format_to_stdout(capsys):
    code, out, _ = run_cli(
        ["bound", "--family", "so-even", "--rank", "6", "--method", "level1", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) == 2


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = so-even\nmethod = level1\nranks = 6,8\n")
    code, out, _ = run_cli(["--config", str(cfg), "bound"], capsys)
    assert code == 0
    assert len(parse_records(out)) == 2
    # flags override config values
    code, out, _ = run_cli(["--config", str(cfg), "bound", "--ranks", "10"], capsys)
    records = parse_records(out)
    assert len(records) == 1 and records[0]["rank"] == 10


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--family", "so-even", "--rank", "20", "--method", "moment4", "--regime", "with_R"],
        ["rmt-verify", "--group", "so-even", "--N", "10", "--samples", "100", "--orders", "2"],
    ],
)
def test_command_line_testfn_replaces_the_config_files(tmp_path, capsys, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("testfn = naive:v=1/3\n")
    from_file = run_cli(["--config", str(cfg), *argv], capsys)
    assert from_file == run_cli([*argv, "--testfn", "naive:v=1/3"], capsys)
    assert from_file[0] == 0
    flag = run_cli(["--config", str(cfg), *argv, "--testfn", "naive:v=1/4"], capsys)
    assert flag == run_cli([*argv, "--testfn", "naive:v=1/4"], capsys)
    assert flag[0] == 0 and "v=0.25" in flag[1] and "v=0.333" not in flag[1]
    # repeated flags still collect every slot
    argv = ["--config", str(cfg), "moment", "--family", "so-even", "--regime", "with_R"]
    _, out, _ = run_cli(argv + ["--testfn", "naive:v=1/4", "--testfn", "naive:v=1/5"], capsys)
    assert parse_records(out)[0]["test_functions"] == ["naive:v=0.25", "naive:v=0.2"]


def test_repeated_flags_leave_the_config_default_unchanged(tmp_path):
    # the first command-line use starts a new list and later uses append to
    # it, so a parser's config default is never mutated
    cfg = tmp_path / "run.cfg"
    cfg.write_text("testfn = naive:v=1/3\n")
    parser = cli.build_parser()
    cli._apply_config(parser, str(cfg))
    argv = ["moment", "--testfn", "naive:v=1/4", "--testfn", "naive:v=1/5"]
    for _ in range(2):
        assert parser.parse_args(argv).testfn == ["naive:v=1/4", "naive:v=1/5"]
    assert parser.parse_args(["moment"]).testfn == ["naive:v=1/3"]


def test_config_key_of_another_subcommand_is_accepted(tmp_path, capsys):
    # `samples` belongs to rmt-verify only; a bound run from the same file ignores it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = so-even\nmethod = level1\nranks = 6,8\nsamples = 600\n")
    code, out, _ = run_cli(["--config", str(cfg), "bound"], capsys)
    assert code == 0
    assert len(parse_records(out)) == 2


@pytest.mark.parametrize(
    "text,message",
    [
        ("family = so-even\nranks 6,8\n", "config line without '='"),
        ("family = so-even\ntol-rel = 1e-2\n", "no subcommand has an option tol-rel"),
        ("family = so-even\nsimplex-tol = 1e-9\n", "no subcommand has an option simplex-tol"),
        ("family = so-even\nformat = xml\n", "format = 'xml' is not one of csv, records"),
        ("family = so-even\nrank = abc\n", "rank = 'abc' is not a valid int"),
        (None, "cannot read config file"),
    ],
)
def test_config_errors_are_invalid_input(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    code, out, err = run_cli(["--config", str(cfg), "bound", "--method", "level1"], capsys)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "invalid-input"
    assert message in error["message"]


def test_argparse_rejects_a_bad_command_line_before_reading_the_config(tmp_path, capsys):
    # the command line is parsed first: exit 2 with argparse's usage error,
    # not exit 1 with invalid-input for the missing file
    missing = tmp_path / "missing.cfg"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(missing), "bound", "--rank", "x"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --rank: invalid int value: 'x'" in captured.err
    assert "invalid-input" not in captured.err


def test_help_prints_without_reading_the_config(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(missing), "bound", "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: momentbounds bound")
    assert captured.err == ""


# ---- one parser per process ----


@pytest.fixture
def fresh_process(monkeypatch):
    """main's parser as a new process finds it, not built yet.  Counts calls
    of the builder, every ArgumentParser constructed and every parse that
    reads a whole command line (``parse_args`` goes through
    ``parse_known_args``; a subcommand's parser gets only the rest)."""
    counts = {"build_parser": 0, "ArgumentParser": 0, "parses": 0, "argv": None}
    build_parser, init = cli.build_parser, argparse.ArgumentParser.__init__
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting_build_parser():
        counts["build_parser"] += 1
        return build_parser()

    def counting_init(self, *args, **kwargs):
        counts["ArgumentParser"] += 1
        init(self, *args, **kwargs)

    def counting_parse_known_args(self, args=None, namespace=None):
        if args == counts["argv"]:
            counts["parses"] += 1
        return parse_known_args(self, args, namespace)

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse_known_args)
    cli._shared_parser.cache_clear()
    yield counts
    cli._shared_parser.cache_clear()


def test_main_builds_its_parsers_once_per_process(fresh_process, capsys):
    runs = [
        ["bound", "--family", "so-even", "--rank", "10", "--method", "level1"],
        ["moment", "--family", "so-even", "--testfn", "naive:v=1/3", "--testfn", "naive:v=1/3"],
        ["bound", "--family", "so-even", "--regime", "exact"],  # argparse exits 2
        ["--help"],
        ["table", "--help"],
        ["table", "T9"],  # argparse exits 2
        ["bound", "--family", "so-odd", "--rank", "5", "--method", "level2"],
    ]
    builds = ("build_parser", "ArgumentParser")
    codes, parses = [], []
    for argv in runs:
        fresh_process["argv"], fresh_process["parses"] = argv, 0
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        parses.append(fresh_process["parses"])
        if len(codes) == 1:
            after_first = {key: fresh_process[key] for key in builds}
    capsys.readouterr()
    assert codes == [0, 0, 2, 0, 0, 2, 0]
    # one parse of the whole command line per call, rejections and --help included
    assert parses == [1] * len(runs)
    # the first call builds the command parser and constructs no other
    # parser; no later call constructs any parser
    assert {key: fresh_process[key] for key in builds} == after_first
    assert after_first["build_parser"] == 1
    cli.build_parser()
    assert fresh_process["ArgumentParser"] == 2 * after_first["ArgumentParser"]


def test_config_defaults_do_not_reach_later_calls(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = so-odd\nranks = 5,7\nmethod = moment4\ntestfn = naive:v=1/3\n")
    plain = [["bound", "--rank", "6"], ["moment", "--family", "so-even", "--regime", "with_R"]]
    before = [run_cli(argv, capsys) for argv in plain]
    code, out, _ = run_cli(["--config", str(cfg), "bound"], capsys)
    assert code == 0
    assert [(r["family"], r["rank"]) for r in parse_records(out)] == [("so-odd", 5), ("so-odd", 7)]
    assert [run_cli(argv, capsys) for argv in plain] == before
    assert [(code, out) for code, out, _ in before] == [(1, ""), (1, "")]
    assert [json.loads(err) for _, _, err in before] == [
        {"error": "invalid-input", "message": "missing required option(s): --family"},
        {"error": "invalid-input", "message": "missing required option(s): --testfn"},
    ]


@pytest.mark.parametrize("method", ["momentx", "level3", "moment2m", "moment2m:x", "moment2m:0"])
def test_bound_rejects_unknown_method(capsys, method):
    code, out, err = run_cli(
        ["bound", "--family", "so-even", "--ranks", "10", "--method", method,
         "--testfn", "naive:v=1/3"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "invalid-input",
        "message": f"unknown --method {method!r} "
        "(expected level1 | level2 | moment4 | moment2m:<m>)",
    }


def test_optimize_command_singleton(capsys):
    code, out, _ = run_cli(
        [
            "optimize",
            "--family",
            "so-even",
            "--rank",
            "100",
            "--basis",
            "sinx2:half=1/8",
            "--basis",
            "fixed:naive:v=1/4",
            "--support",
            "1/4",
            "--regime",
            "mock_gaussian",
            "--restarts",
            "1",
            "--max-evals",
            "5",
        ],
        capsys,
    )
    assert code == 0
    records = parse_records(out)
    result = next(r for r in records if r["kind"] == "result")
    assert result["bound"] == pytest.approx(3.7858e-9, rel=1e-3)


def test_optimize_csv_coefficients_are_the_records_numbers(capsys):
    argv = ["optimize", "--family", "so-even", "--rank", "100", "--support", "1/4",
            "--basis", "cos:dim=2:half=1/8", "--basis", "fixed:naive:v=1/8",
            "--regime", "mock_gaussian", "--restarts", "1", "--max-evals", "10"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    result = parse_records(out)[-1]
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    cell = list(csv.DictReader(io.StringIO(out)))[-1]["coefficients"]
    assert "np." not in cell
    assert [json.loads(slot) for slot in cell.split(";")] == result["coefficients"]


@pytest.mark.parametrize("basis", ["cos:dim=2:half=1/8:box=-2,2", "poly:dim=2:hlaf=1/8"])
def test_optimize_refuses_an_unknown_basis_field(capsys, basis):
    # a field the grammar does not know would otherwise be dropped unseen
    code, out, err = run_cli(
        ["optimize", "--family", "so-even", "--rank", "100", "--support", "1/4",
         "--basis", basis, "--basis", "fixed:naive:v=1/4", "--regime", "mock_gaussian"],
        capsys,
    )
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "invalid-input"
    assert "unknown basis field" in error["message"]


def test_optimize_refuses_a_field_sinx2_cannot_use(capsys):
    # sinx2 has no dimension: dim=3 would otherwise run as plain sinx2
    code, out, err = run_cli(
        ["optimize", "--family", "so-even", "--rank", "100", "--support", "1/4",
         "--basis", "sinx2:dim=3:half=1/8", "--regime", "mock_gaussian"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "invalid-input",
        "message": "basis field 'dim' does not apply to sinx2 in 'sinx2:dim=3:half=1/8' "
        "(expected half)",
    }


@pytest.mark.parametrize(
    "basis, field",
    [("cos:dim=2:half=1/8:half=1/16", "half"), ("poly:dim=2:dim=3:half=1/8", "dim")],
)
def test_optimize_refuses_a_repeated_basis_field(capsys, monkeypatch, basis, field):
    # the last value would otherwise win unseen
    def refuse(*args, **kwargs):
        raise RuntimeError("evaluated")

    monkeypatch.setattr(momentbounds.optimize, "objective", refuse)
    code, out, err = run_cli(
        ["optimize", "--family", "so-even", "--rank", "100", "--support", "1/4",
         "--basis", basis, "--regime", "mock_gaussian"],
        capsys,
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "invalid-input",
        "message": f"basis field {field!r} is repeated in {basis!r}",
    }


@pytest.mark.parametrize(
    "support, basis, config",
    [
        ("1/0", "cos:dim=2:half=1/8", None),
        ("1/4", "cos:dim=2:half=1/0", None),
        (None, "cos:dim=2:half=1/8", "support = 1/0\n"),
        ("1/4", "fixed:naive:v=1/0", None),
    ],
)
def test_optimize_zero_denominator_is_invalid_input(tmp_path, capsys, support, basis, config):
    argv = ["optimize", "--family", "so-even", "--rank", "100", "--basis", basis,
            "--regime", "mock_gaussian"]
    if support is not None:
        argv += ["--support", support]
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = ["--config", str(cfg), *argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "invalid-input"
    assert "rational '1/0' has a zero denominator" in error["message"]


def test_optimize_sinx2_basis_is_its_fixed_slot(capsys):
    outs = []
    for basis in ("sinx2:half=1/8", "fixed:gen:sinx2:half=1/8"):
        code, out, _ = run_cli(
            ["optimize", "--family", "so-even", "--rank", "100", "--support", "1/4",
             "--basis", basis, "--basis", "cos:dim=2:half=1/8", "--regime", "mock_gaussian",
             "--restarts", "1", "--max-evals", "12", "--seed", "2"],
            capsys,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_rmt_verify_small_run(capsys):
    code, out, _ = run_cli(
        [
            "rmt-verify",
            "--group",
            "so-even",
            "--N",
            "10",
            "--samples",
            "3000",
            "--testfn",
            "naive:v=1/3",
            "--orders",
            "2,4",
            "--seed",
            "7",
        ],
        capsys,
    )
    records = parse_records(out)
    assert len(records) == 2
    assert all("z_score" in r and "allowance" in r for r in records)
    assert code == 0, records


def test_rmt_verify_generator_phi_at_any_phase(capsys):
    # SO(660) eigenangles reach |x| = 330, so 2 pi |x| h = 933: generator
    # phi has no phase cap
    argv = ["rmt-verify", "--group", "so-even", "--N", "330", "--samples", "200",
            "--testfn", "gen:cos:1:half=0.45", "--orders", "2", "--seed", "1"]
    code, out, err = run_cli(argv, capsys)
    (record,) = parse_records(out)
    assert (code, err, record["passed"]) == (0, "", True)


def test_rmt_verify_records_do_not_depend_on_workers(capsys):
    for group in ("so-even", "u"):
        argv = ["rmt-verify", "--group", group, "--N", "20", "--samples", "400"]
        argv += ["--testfn", "gen:cos:1:half=1/6", "--orders", "2,3,4", "--seed", "3"]
        one = run_cli(argv + ["--workers", "1"], capsys)
        assert one[0] == 0 and len(parse_records(one[1])) == 3, group
        assert run_cli(argv + ["--workers", "2"], capsys) == one, group


def test_rmt_verify_refuses_a_second_testfn(capsys):
    argv = ["rmt-verify", "--group", "so-even", "--N", "10", "--samples", "100"]
    argv += ["--testfn", "naive:v=1/3", "--testfn", "naive:v=1/4"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "invalid-input",
        "message": "rmt-verify takes one --testfn, got 2",
    }


def test_rmt_verify_refuses_orders_without_a_prediction(capsys):
    # v = 0.36 lies past 1/(n-1) = 1/3 at order 4: no limit is predicted there
    argv = ["rmt-verify", "--group", "so-even", "--N", "40", "--samples", "2000"]
    argv += ["--testfn", "naive:v=0.36", "--orders", "2,4", "--seed", "3"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "support-regime"


_RMT_ARGV = ["rmt-verify", "--N", "5", "--testfn", "naive:v=1/4", "--orders", "2,3", "--seed", "2"]
_OPT_ARGV = ["optimize", "--family", "so-even", "--rank", "100", "--support", "1/4",
             "--basis", "cos:dim=4:half=1/8", "--regime", "mock_gaussian", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_RMT_ARGV + ["--group", "so-even", "--samples", "3"], "samples must be >= 4"),
        (_RMT_ARGV + ["--group", "u", "--samples", "100", "--workers", "0"],
         "workers must be >= 1"),
        (_OPT_ARGV + ["--restarts", "0"], "restarts must be >= 1"),
        (_OPT_ARGV + ["--restarts", "1", "--max-evals", "0"], "max_evals must be >= 1"),
        (_OPT_ARGV + ["--weight-k", "0"], "weight_k must be an integer >= 2"),
        (_OPT_ARGV + ["--weight-k", "1"], "weight_k must be an integer >= 2"),
    ],
)
def test_counts_below_one_run_are_invalid_input(capsys, monkeypatch, argv, message):
    # refused before any sampling or objective call: either would raise here
    def refuse(*args, **kwargs):
        raise RuntimeError("sampled or evaluated")

    monkeypatch.setattr(momentbounds.rmt, "sample_haar_batch", refuse)
    monkeypatch.setattr(momentbounds.optimize, "objective", refuse)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "invalid-input"
    assert message in error["message"]


@pytest.mark.parametrize(
    "orders, message",
    [("2,2", "order 2 is repeated in orders [2, 2]"),
     ("3,2,4,3", "order 3 is repeated in orders [3, 2, 4, 3]")],
)
def test_rmt_verify_refuses_a_repeated_order(capsys, monkeypatch, orders, message):
    # each order would print its record twice; refused before any sampling
    def refuse(*args, **kwargs):
        raise RuntimeError("sampled")

    monkeypatch.setattr(momentbounds.rmt, "sample_haar_batch", refuse)
    argv = ["rmt-verify", "--group", "so-even", "--N", "10", "--samples", "100",
            "--testfn", "naive:v=1/4", "--orders", orders]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "invalid-input", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        _RMT_ARGV + ["--group", "so-odd", "--samples", "4"],
        _RMT_ARGV + ["--group", "u", "--samples", "4"],
        _OPT_ARGV + ["--restarts", "2", "--max-evals", "1"],
    ],
)
def test_fewest_accepted_counts_print_strict_json(capsys, argv):
    # NaN and Infinity are not JSON: every printed value must be a finite number
    def refuse(name):
        raise ValueError(f"{name} in a record")

    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out
    for line in out.splitlines():
        json.loads(line, parse_constant=refuse)


def test_unsplit_family_is_unknown(capsys):
    argv = ["moment", "--family", "o", "--regime", "mock_gaussian"]
    argv += ["--testfn", "naive:v=1/4"] * 4
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "invalid-input"
