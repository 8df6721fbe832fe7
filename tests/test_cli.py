"""Command line contract: JSON schema, frozen outputs, exit codes."""
import json
import time
from fractions import Fraction

import pytest

import ncfree
from ncfree import cli, model, ncpart
from ncfree.errors import SizeLimitError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, expect=0):
    code, out, err = run(capsys, *argv)
    assert code == expect, f"exit {code}, stderr: {err}"
    doc = json.loads(out)
    assert set(doc) == {"op", "params", "result", "provenance", "version"}
    assert json.dumps(doc, sort_keys=True) == out.strip()
    assert doc["version"] == ncfree.__version__
    return doc


def expect_usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err
    return err


# ---------------------------------------------------------------------------
# nc


def test_nc_enum(capsys):
    doc = run_json(capsys, "nc", "enum", "--q", "3")
    assert doc["provenance"] == "exact"
    assert doc["result"]["count"] == 5
    assert "{1,2,3}" in doc["result"]["partitions"]
    assert "{1,3}{2}" in doc["result"]["partitions"]


def test_nc_enum_rejects_a_negative_size(capsys):
    # NC of the empty set is {empty partition}, so q = 0 stays valid
    assert run_json(capsys, "nc", "enum", "--q", "0")["result"]["count"] == 1
    expect_usage_error(capsys, "nc", "enum", "--q", "-3")


def test_nc_enum_cap_is_a_usage_error(capsys):
    expect_usage_error(capsys, "nc", "enum", "--q", "20")
    # the library's default cap guards any size; the CLI offers no override
    expect_usage_error(capsys, "nc", "enum", "--q", "30")
    with pytest.raises(SystemExit) as exc:
        cli.main(["nc", "enum", "--q", "3", "--cap", "40"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("q", ["15", "16"])
def test_nc_enum_refuses_sizes_it_cannot_hold_before_enumerating(capsys, q):
    # NC(15) would need about 7 GB once listed as JSON; the library's
    # enumeration limit (16) still admits it
    assert int(q) <= ncpart.ENUMERATION_LIMIT
    t0 = time.perf_counter()
    err = expect_usage_error(capsys, "nc", "enum", "--q", q)
    assert time.perf_counter() - t0 < 1.0
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("nc", "enum", "--q", "30"),
    ("cumulants", "from-moments", "--moments", ",".join(["1"] * 17)),
])
def test_cap_errors_point_at_no_cli_override(capsys, argv):
    # no subcommand takes a cap, so the message must not suggest passing one
    err = expect_usage_error(capsys, *argv)
    assert "cap=" not in err


def test_nc_mobius(capsys):
    doc = run_json(capsys, "nc", "mobius",
                   "--pi", "{1}{2}{3}{4}", "--sigma", "{1,2,3,4}")
    assert doc["result"] == "-5"


def test_nc_mobius_rejects_incomparable(capsys):
    expect_usage_error(capsys, "nc", "mobius",
                       "--pi", "{1,2}{3}", "--sigma", "{1}{2,3}")


def test_nc_mobius_refuses_a_block_above_the_enumeration_limit(capsys):
    ground = range(1, ncpart.ENUMERATION_LIMIT + 2)
    pi = "".join(f"{{{i}}}" for i in ground)
    sigma = "{" + ",".join(map(str, ground)) + "}"
    err = expect_usage_error(capsys, "nc", "mobius", "--pi", pi, "--sigma", sigma)
    assert "enumeration limit" in err


def test_nc_pitilde_frozen_instance(capsys):
    doc = run_json(capsys, "nc", "pitilde", "--q", "18",
                   "--d", "2,5,8,11,13,14,17",
                   "--pi", "{2,8,11}{5}{13,14,17}")
    assert doc["result"] == "{1,12,18}{3,4,6,7}{9,10}{15,16}"
    assert doc["params"]["d"] == [2, 5, 8, 11, 13, 14, 17]


def test_nc_pitilde_rejects_crossing(capsys):
    expect_usage_error(capsys, "nc", "pitilde", "--q", "4",
                       "--d", "1,2,3,4", "--pi", "{1,3}{2,4}")


@pytest.mark.parametrize("q, d, pi", [("3", "1,2,3,4", "{1,2,3,4}"),
                                       ("0", "1", "{1}"),
                                       ("4", "2,5", "{2,5}")])
def test_nc_pitilde_rejects_marks_outside_q(capsys, q, d, pi):
    expect_usage_error(capsys, "nc", "pitilde", "--q", q, "--d", d, "--pi", pi)


@pytest.mark.parametrize("d", ["2,,5", "2,5,", ",2,5", ""])
def test_nc_pitilde_rejects_empty_list_items(capsys, d):
    expect_usage_error(capsys, "nc", "pitilde", "--q", "5", "--d", d,
                       "--pi", "{2,5}")


# ---------------------------------------------------------------------------
# cumulants


def test_cumulant_transforms_roundtrip(capsys):
    doc = run_json(capsys, "cumulants", "from-moments", "--moments", "1,3,11,45")
    assert doc["result"] == ["1", "2", "4", "8"]
    doc = run_json(capsys, "cumulants", "to-moments", "--cumulants", "1,2,4,8")
    assert doc["result"] == ["1", "3", "11", "45"]


def test_cumulants_reject_bad_rationals(capsys):
    expect_usage_error(capsys, "cumulants", "from-moments", "--moments", "1,x")
    expect_usage_error(capsys, "cumulants", "to-moments", "--cumulants", "")


@pytest.mark.parametrize("items", ["1,,", "1,,3", ",1", "1, ,3"])
def test_cumulants_reject_empty_list_items(capsys, items):
    expect_usage_error(capsys, "cumulants", "from-moments", "--moments", items)
    expect_usage_error(capsys, "cumulants", "to-moments", "--cumulants", items)


# ---------------------------------------------------------------------------
# model


def test_model_tau(capsys):
    doc = run_json(capsys, "model", "tau", "--n", "2",
                   "--word", "Z M[[1,0],[0,0]] Z M[[1,0],[0,0]]")
    assert doc["result"] == "1"
    doc = run_json(capsys, "model", "tau", "--n", "2",
                   "--word", "Z M[[0,1],[1,0]]")
    assert doc["result"] == "0"


def test_model_tau_word_syntax_errors(capsys):
    expect_usage_error(capsys, "model", "tau", "--n", "2", "--word", "Q")
    expect_usage_error(capsys, "model", "tau", "--n", "2", "--word", "")
    expect_usage_error(capsys, "model", "tau", "--n", "2", "--word", "M[[1,2],[3]]")
    expect_usage_error(capsys, "model", "tau", "--n", "2", "--word", "M[1,2]")
    expect_usage_error(capsys, "model", "tau", "--n", "2",
                       "--word", "M[[1,1/0],[0,1]]")
    # 3x3 letter in an n=2 model is a config error, still exit 2
    expect_usage_error(capsys, "model", "tau", "--n", "2",
                       "--word", "M[[1,0,0],[0,1,0],[0,0,1]]")


def test_model_z_moment(capsys):
    doc = run_json(capsys, "model", "z-moment", "--n", "2", "--m", "3")
    assert doc["result"] == "11"
    # the closed form has no size limit
    doc = run_json(capsys, "model", "z-moment", "--n", "2", "--m", "17")
    assert doc["result"] == "55909013009"


def test_model_dims(capsys):
    doc = run_json(capsys, "model", "dims", "--n", "3", "--k", "3")
    assert doc["result"] == "9"


def test_results_past_the_int_digit_limit_are_usage_errors(capsys):
    # Python refuses to print an int of more than 4300 digits by default
    err = expect_usage_error(capsys, "model", "dims", "--n", "2", "--k", "20000")
    assert "digits" in err and "Traceback" not in err
    # refused before computing: z_moment(m) >= n**(m-1), and dims is n**(k-1)
    for argv in (("z-moment", "--n", "2", "--m", "7000"),
                 ("dims", "--n", "3", "--k", "100000000")):
        err = expect_usage_error(capsys, "model", *argv)
        assert "digits" in err and "Traceback" not in err
    # --n is validated before the digit bound takes its logarithm
    err = expect_usage_error(capsys, "model", "dims", "--n", "0", "--k", "100000000")
    assert "n must be" in err
    big = "7" * 3000
    err = expect_usage_error(capsys, "cumulants", "to-moments",
                             "--cumulants", f"{big},{big}")
    assert "digits" in err and "Traceback" not in err
    with pytest.raises(SizeLimitError):
        cli._exact(Fraction(10 ** 5000, 3))


def test_model_pi_term(capsys):
    doc = run_json(capsys, "model", "pi-term", "--n", "2",
                   "--word", "Z M[[1,0],[0,0]] Z M[[1,0],[0,0]]",
                   "--pi", "{1,3}")
    result = doc["result"]
    assert result["pi"] == "{1,3}"
    assert result["pi_tilde"] == "{2}{4}"
    assert result["cumulant_factor"] == "2"
    assert result["loop_count"] == 0
    assert result["value"] == "1/2"
    assert result["block_traces"] == [
        {"positions": [2], "trace": "1/2"},
        {"positions": [4], "trace": "1/2"},
    ]


# ---------------------------------------------------------------------------
# free


def test_free_check_certifies(capsys):
    doc = run_json(capsys, "free", "check", "--n", "2", "--max-q", "3")
    result = doc["result"]
    assert result["certified"] is True
    assert result["violations"] == []
    # 5 letters, minus the all-generator and all-matrix tuples, q = 2..3
    assert result["tuples_checked"] == sum(5 ** q - 1 - 4 ** q for q in (2, 3))


@pytest.mark.parametrize("max_q", ["1", "0"])
def test_free_check_refuses_a_vacuous_certificate(capsys, max_q):
    expect_usage_error(capsys, "free", "check", "--n", "2", "--max-q", max_q)


def test_free_product_moment(capsys):
    doc = run_json(capsys, "free", "product-moment", "--n", "2",
                   "--word", "Z M[[1,0],[0,0]] Z M[[1,0],[0,0]]")
    assert doc["result"] == "1"


# ---------------------------------------------------------------------------
# factor


def test_factor_m3(capsys):
    assert run_json(capsys, "factor", "m3", "--n", "2")["result"] == "LF(3/2)"
    assert run_json(capsys, "factor", "m3", "--n", "3")["result"] == "LF(13/9)"
    expect_usage_error(capsys, "factor", "m3", "--n", "1")


def test_factor_dykema(capsys):
    doc = run_json(capsys, "factor", "dykema",
                   "--r", "3", "--alpha", "1/8", "--d", "2")
    assert doc["result"] == "M2[1/2] (+) LF(21/16)[1/2]"
    doc = run_json(capsys, "factor", "dykema",
                   "--r", "1", "--alpha", "1/2", "--d", "2")
    assert doc["result"] == "LF(3/2)"
    expect_usage_error(capsys, "factor", "dykema",
                       "--r", "1/2", "--alpha", "1/2", "--d", "2")
    expect_usage_error(capsys, "factor", "dykema",
                       "--r", "1", "--alpha", "x", "--d", "2")


# ---------------------------------------------------------------------------
# rmt


def test_rmt_sample_with_csv(capsys, tmp_path):
    out_file = tmp_path / "eigs.csv"
    doc = run_json(capsys, "rmt", "sample", "--n", "2", "--N", "120",
                   "--trials", "2", "--seed", "5", "--out", str(out_file))
    assert doc["provenance"] == "montecarlo"
    result = doc["result"]
    assert result["count"] == 240
    assert result["atom_mass"] == pytest.approx(0.5)
    assert result["csv"] == str(out_file)
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    assert header == {"N": 120, "n": 2, "seed": 5, "trials": 2,
                      "epsilon_atom": pytest.approx(2e-6)}
    assert lines[1] == "eigenvalue"
    values = [float(s) for s in lines[2:]]
    assert len(values) == 240
    assert min(values) == 0.0


def test_rmt_sample_unwritable_out_is_a_usage_error(capsys, tmp_path):
    expect_usage_error(capsys, "rmt", "sample", "--n", "2", "--N", "120",
                       "--trials", "1", "--out", str(tmp_path / "no" / "x.csv"))


def test_rmt_estimate(capsys):
    doc = run_json(capsys, "rmt", "estimate", "--n", "2", "--N", "120",
                   "--trials", "3", "--seed", "5", "--word", "Z")
    result = doc["result"]
    assert result["trials"] == 3
    assert result["std_error_ok"] is True
    assert result["value"] == pytest.approx(1.0, abs=0.1)
    expect_usage_error(capsys, "rmt", "estimate", "--n", "2", "--N", "50",
                       "--trials", "3", "--word", "Z")


RMT_SIZE = ("--n", "2", "--N", "120", "--trials", "2")


@pytest.mark.parametrize("argv", [
    ("rmt", "estimate", *RMT_SIZE, "--seed", "-1", "--word", "Z"),
    ("rmt", "sample", *RMT_SIZE, "--seed", "-5"),
    ("rmt", "estimate", *RMT_SIZE, "--threads", "0", "--word", "Z"),
    ("rmt", "sample", *RMT_SIZE, "--threads", "-3"),
    ("verify", "all", "--quick", "--threads", "0"),
])
def test_negative_seeds_and_threads_are_usage_errors(capsys, argv):
    expect_usage_error(capsys, *argv)


def test_threads_default_to_one():
    args = cli._build_parser().parse_args(["rmt", "sample", *RMT_SIZE])
    assert args.threads == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_all_quick(capsys):
    doc = run_json(capsys, "verify", "all", "--quick")
    assert doc["provenance"] == "exact"
    assert doc["result"]["ok"] is True
    checks = doc["result"]["checks"]
    assert len(checks) == 8
    assert all(c["ok"] for c in checks)


def test_verify_all_quick_with_rmt(capsys):
    doc = run_json(capsys, "verify", "all", "--quick", "--rmt")
    assert doc["provenance"] == "montecarlo"
    assert doc["result"]["ok"] is True
    assert len(doc["result"]["checks"]) == 9


def test_verify_detects_a_seeded_weight_bug(capsys):
    # a wrong cumulant weight must flip the suite red; this guards against
    # the checks accidentally comparing a quantity to itself
    original = model._cumulant_weight

    def bent(n, d_size, block_count):
        return n ** (d_size - block_count) + (1 if d_size > block_count else 0)

    model._cumulant_weight = bent
    ncfree.clear_caches()
    try:
        code, out, _ = run(capsys, "verify", "all", "--quick")
        assert code == 1
        doc = json.loads(out)
        assert doc["result"]["ok"] is False
        bad = [c["name"] for c in doc["result"]["checks"] if not c["ok"]]
        assert "word-trace-dual-route" in bad
    finally:
        model._cumulant_weight = original
        ncfree.clear_caches()
    code, _, _ = run(capsys, "verify", "all", "--quick")
    assert code == 0
