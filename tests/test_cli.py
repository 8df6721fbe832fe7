"""Command line contract: JSON schema, frozen outputs, exit codes."""
import argparse
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import ncfree
from ncfree import cli, factors, model, ncpart, ratmat
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


_ABOVE = ncpart.ENUMERATION_LIMIT + 1


@pytest.mark.parametrize("argv", [
    ("nc", "enum", "--q", str(_ABOVE)),
    ("cumulants", "from-moments", "--moments", ",".join(["1"] * _ABOVE)),
    ("cumulants", "to-moments", "--cumulants", ",".join(["1"] * _ABOVE)),
    ("model", "tau", "--n", "2", "--word", " ".join(["Z"] * _ABOVE)),
], ids=["nc-enum", "from-moments", "to-moments", "model-tau"])
def test_each_nc_user_refuses_one_past_the_limit_before_any_work(capsys, argv):
    # NC(13) holds 742,900 partitions, 3.6 times NC(12); the refusal comes
    # before the first partition is walked
    t0 = time.perf_counter()
    err = expect_usage_error(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert "enumeration limit" in err
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


def test_nc_mobius_has_no_block_limit(capsys):
    # mobius enumerates nothing, so a block past the enumeration limit is
    # read off in closed form: mu(bottom, top) on NC(20) is -Cat(19)
    ground = range(1, 21)
    pi = "".join(f"{{{i}}}" for i in ground)
    sigma = "{" + ",".join(map(str, ground)) + "}"
    doc = run_json(capsys, "nc", "mobius", "--pi", pi, "--sigma", sigma)
    assert doc["result"] == str(-ncpart.catalan(19))


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


def test_huge_pitilde_sizes_are_refused_before_the_complement(capsys):
    # q = 10**9 would build a billion-entry unmarked list; the refusal builds none
    limit = cli.NC_PITILDE_LIMIT
    doc = run_json(capsys, "nc", "pitilde", "--q", str(limit), "--d", "1",
                   "--pi", "{1}")
    assert doc["result"] == "{" + ",".join(map(str, range(2, limit + 1))) + "}"
    t0 = time.perf_counter()
    for q in (limit + 1, 10 ** 9):
        err = expect_usage_error(capsys, "nc", "pitilde", "--q", str(q),
                                 "--d", "1", "--pi", "{1}")
        assert f"at most --q {limit}" in err
        assert "Traceback" not in err
    assert time.perf_counter() - t0 < 1.0


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


@pytest.mark.parametrize("n, max_q", [("2", "4"), ("3", "4")])
def test_free_check_admits_sweeps_within_its_budget(capsys, n, max_q):
    doc = run_json(capsys, "free", "check", "--n", n, "--max-q", max_q)
    assert doc["result"]["certified"] is True


@pytest.mark.parametrize("n, max_q", [("2", "7"), ("2", "11"), ("100", "2"),
                                      ("10000", "2")])
def test_free_check_refuses_sweeps_past_its_budget(capsys, n, max_q):
    # refused before the letters are built: n=100 would hold 10**8 entries
    t0 = time.perf_counter()
    err = expect_usage_error(capsys, "free", "check", "--n", n, "--max-q", max_q)
    assert time.perf_counter() - t0 < 1.0
    assert "above the cost budget" in err


@pytest.mark.parametrize("n, max_q, admitted", [
    (10, 3, True), (3, 5, True), (33, 2, True), (4, 4, True),
    (5, 4, False), (11, 3, False), (2, 7, False)])
def test_free_check_budget_admits_by_measured_cost(n, max_q, admitted):
    # in fresh processes on a two-core machine the admitted sweeps took at
    # most 3.0 s and the refused ones at least 4.1 s (see FREE_CHECK_BUDGET)
    assert (cli._free_check_cost(n, max_q) <= cli.FREE_CHECK_BUDGET) is admitted


def _wrong_numerator_scale(monkeypatch):
    # e in place of n * e, so tau(E11) * e = 1/2 is no integer
    scale = model._numerator_scale
    monkeypatch.setattr(model, "_numerator_scale",
                        lambda word, n: scale(word, n) // n)


def test_free_check_fails_on_a_nonzero_cumulant(capsys, monkeypatch):
    # a cumulant weight one power of n too high; each violation names its
    # word in the syntax that --word reads
    monkeypatch.setattr(model, "_cumulant_weight",
                        lambda n, d, b: n ** (d - b + 1))
    ncfree.clear_caches()
    try:
        doc = run_json(capsys, "free", "check", "--n", "2", "--max-q", "4",
                       expect=1)
        violations = doc["result"]["violations"]
        assert doc["result"]["certified"] is False and violations
        for v in violations:
            assert model._word_label(cli.parse_word(v["word"])) == v["word"]
        assert len({v["word"] for v in violations}) == len(violations)
    finally:
        ncfree.clear_caches()


def test_free_check_fails_on_a_non_integral_numerator(capsys, monkeypatch):
    _wrong_numerator_scale(monkeypatch)
    ncfree.clear_caches()
    try:
        code, out, err = run(capsys, "free", "check", "--n", "2", "--max-q", "2")
    finally:
        ncfree.clear_caches()
    assert (code, out) == (1, "")
    assert "is not an integer" in err


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


def expect_inconsistency(capsys, *argv):
    # the package disagrees with itself: exit 1, no document
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:")


def test_factor_m3_pipeline_disagreement_exits_1(capsys, monkeypatch):
    # swapped weights: LZ at 1 - 1/n lands off the closed form
    def swapped(params):
        n = params.n
        return factors.FactorDescription((
            factors.Summand(Fraction(1, n), factors.SCALAR),
            factors.Summand(Fraction(n - 1, n), factors.INTEGER_GROUP)))

    monkeypatch.setattr(factors, "vn_z_description", swapped)
    expect_inconsistency(capsys, "factor", "m3", "--n", "3")


def test_pi_term_on_a_broken_complement_exits_1(capsys, monkeypatch):
    _singleton_complement(monkeypatch)
    ncfree.clear_caches()
    try:
        expect_inconsistency(capsys, "model", "pi-term", "--n", "2",
                             "--word", "Z M[[1,0],[0,0]] Z M[[1,0],[0,0]] Z",
                             "--pi", "{1}{3}{5}")
    finally:
        ncfree.clear_caches()


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


def test_rmt_sample_out_holds_no_float_object_per_eigenvalue(capsys, tmp_path):
    # the CSV is written one trial's row at a time, so the traced peak stays
    # near the sample array itself (and the copy that eigs ** 2 makes); a
    # list of Python floats for the whole sample would add four times its
    # bytes
    import tracemalloc
    out_file = str(tmp_path / "eigs.csv")
    cli.main(["rmt", "sample", "--n", "2", "--N", "100", "--trials", "1",
              "--out", out_file])  # load the Monte Carlo layer first
    trials, N = 2000, 100
    tracemalloc.start()
    try:
        code = cli.main(["rmt", "sample", "--n", "2", "--N", str(N),
                         "--trials", str(trials), "--out", out_file])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    capsys.readouterr()
    with open(out_file) as fh:
        assert sum(1 for _ in fh) == trials * N + 2
    assert peak < 3 * trials * N * 8


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
])
def test_negative_seeds_are_usage_errors(capsys, argv):
    expect_usage_error(capsys, *argv)


def test_threads_is_not_an_option(capsys):
    # trials run in one thread, so no subcommand takes a thread count
    for argv in (("rmt", "sample", *RMT_SIZE),
                 ("rmt", "estimate", *RMT_SIZE, "--word", "Z"),
                 ("verify", "all", "--quick")):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--threads", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --threads 2" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("cmd", [("sample",), ("estimate", "--word", "Z")])
def test_huge_matrix_sizes_are_refused_before_any_draw(capsys, cmd):
    # N = 10**6 would ask numpy for terabytes; the refusal costs no draw
    t0 = time.perf_counter()
    err = expect_usage_error(capsys, "rmt", cmd[0], "--n", "2",
                             "--N", "1000000", "--trials", "1", *cmd[1:])
    assert time.perf_counter() - t0 < 1.0
    assert "size limit of 8000" in err
    assert "Traceback" not in err


def test_rmt_sample_above_the_spectrum_limit_is_refused_before_any_draw(capsys):
    # trials * N one step past rmt.SPECTRUM_VALUE_LIMIT: --trials has no
    # bound of its own, and the stacked samples would grow without one
    from ncfree import rmt
    trials = rmt.SPECTRUM_VALUE_LIMIT // 100 + 1
    t0 = time.perf_counter()
    err = expect_usage_error(capsys, "rmt", "sample", "--n", "2", "--N", "100",
                             "--trials", str(trials))
    assert time.perf_counter() - t0 < 1.0
    assert "spectrum limit" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# verify


def test_verify_all_quick(capsys):
    doc = run_json(capsys, "verify", "all", "--quick")
    assert doc["provenance"] == "exact"
    assert doc["result"]["ok"] is True
    checks = doc["result"]["checks"]
    assert len(checks) == 8
    assert all(c["ok"] for c in checks)
    # the wall time is its own field, not a suffix of the detail
    assert all(c["seconds"] >= 0 and not c["detail"].endswith("s]")
               for c in checks)


def test_verify_all_quick_with_rmt(capsys):
    doc = run_json(capsys, "verify", "all", "--quick", "--rmt")
    assert doc["provenance"] == "montecarlo"
    assert doc["result"]["ok"] is True
    assert len(doc["result"]["checks"]) == 9


def _bent_cumulant_weight(monkeypatch):
    # one more than n**(|D| - |pi|) on every partition that merges letters
    monkeypatch.setattr(model, "_cumulant_weight",
                        lambda n, d, b: n ** (d - b) + (1 if d > b else 0))


def _generator_block_weight(monkeypatch):
    # tilde_kappa weighs each pure-generator block n**|B|, not n**(|B|-1)
    original = model.tilde_kappa

    def bent(word, sigma, params):
        pure = sum(all(word[i - 1].is_z for i in block) for block in sigma.blocks)
        return original(word, sigma, params) * params.n ** pure

    monkeypatch.setattr(model, "tilde_kappa", bent)


def _dropped_denominator(monkeypatch):
    # product_trace forgets the last factor's denominator, which only a
    # letter with non-unit denominators can show
    original = ratmat.product_trace

    def bent(mats):
        *head, last = mats
        d = math.lcm(*(x.denominator for row in last for x in row))
        return original((*head, tuple(tuple(x * d for x in row) for row in last))
                        if head else mats)

    monkeypatch.setattr(ratmat, "product_trace", bent)


@pytest.mark.parametrize("defect, check, detail", [
    (_bent_cumulant_weight, "word-trace-routes", "centering_moment disagrees"),
    (_generator_block_weight, "word-trace-routes", "tilde_kappa sum disagrees"),
    (_dropped_denominator, "word-trace-routes", "centering_moment disagrees"),
], ids=["cumulant-weight", "generator-block-weight", "dropped-denominator"])
def test_verify_detects_a_seeded_weight_bug(capsys, monkeypatch, defect, check,
                                            detail):
    # a wrong weight must flip the suite red; this guards against the
    # checks accidentally comparing a quantity to itself
    defect(monkeypatch)
    ncfree.clear_caches()
    try:
        doc = run_json(capsys, "verify", "all", "--quick", expect=1)
    finally:
        monkeypatch.undo()
        ncfree.clear_caches()
    assert doc["result"]["ok"] is False
    checks = {c["name"]: c for c in doc["result"]["checks"]}
    assert not checks[check]["ok"]
    assert detail in checks[check]["detail"]
    code, _, _ = run(capsys, "verify", "all", "--quick")
    assert code == 0


def _bend_dykema_pipeline(monkeypatch):
    # the pipeline lands 1/1000 off the closed form, so m3_parameter raises
    original = factors.dykema_free_product

    def bent(r, alpha, d):
        *rest, top = original(r, alpha, d).summands
        top = factors.Summand(top.weight, top.kind,
                              top.parameter + Fraction(1, 1000))
        return factors.FactorDescription((*rest, top))

    monkeypatch.setattr(factors, "dykema_free_product", bent)


def _singleton_complement(monkeypatch):
    # every complement block a singleton drives loop counts negative, so
    # pi_term raises inside loop-bookkeeping
    monkeypatch.setattr(ncpart, "_rest_complement",
                        lambda pi_blocks, rest: tuple((e,) for e in rest))


@pytest.mark.parametrize("defect, check, error, unaffected", [
    (_bend_dykema_pipeline, "factor-parameters",
     "InconsistencyError: pipeline parameter 1501/1000 disagrees with closed form 3/2",
     "loop-bookkeeping"),
    (_singleton_complement, "loop-bookkeeping",
     "InconsistencyError: complement of", "factor-parameters"),
    (_wrong_numerator_scale, "mixed-cumulants-vanish",
     "InconsistencyError: 1**1 * tau(M[[1,0],[0,0]]) = 1/2 is not an integer",
     "word-trace-routes"),
], ids=["bent-dykema-pipeline", "singleton-complement", "wrong-numerator-scale"])
def test_verify_reports_a_raising_check_as_failed(capsys, monkeypatch, defect,
                                                  check, error, unaffected):
    # a defect that makes the code under test raise fails its check; the
    # run still ends with exit 1 and a document naming all eight checks,
    # and a check the defect does not reach still passes
    defect(monkeypatch)
    ncfree.clear_caches()
    try:
        doc = run_json(capsys, "verify", "all", "--quick", expect=1)
    finally:
        ncfree.clear_caches()
    assert doc["result"]["ok"] is False
    checks = {c["name"]: c for c in doc["result"]["checks"]}
    assert len(checks) == 8
    assert not checks[check]["ok"]
    assert checks[check]["detail"].startswith(error)
    assert checks[unaffected]["ok"]


# ---------------------------------------------------------------------------
# the document: main names the op and the provenance of every subcommand

WORD = "Z M[[1,0],[0,0]] Z"
DOCUMENT_RUNS = [
    ("nc", "enum", "--q", "3"),
    ("nc", "mobius", "--pi", "{1}{2}", "--sigma", "{1,2}"),
    ("nc", "pitilde", "--q", "4", "--d", "1,3", "--pi", "{1,3}"),
    ("cumulants", "from-moments", "--moments", "1,2"),
    ("cumulants", "to-moments", "--cumulants", "1,1"),
    ("model", "tau", "--n", "2", "--word", WORD),
    ("model", "pi-term", "--n", "2", "--word", WORD, "--pi", "{1,3}"),
    ("model", "z-moment", "--n", "2", "--m", "3"),
    ("model", "dims", "--n", "2", "--k", "3"),
    ("free", "check", "--n", "2", "--max-q", "2"),
    ("free", "product-moment", "--n", "2", "--word", WORD),
    ("factor", "dykema", "--r", "3", "--alpha", "1/8", "--d", "2"),
    ("factor", "m3", "--n", "2"),
    ("rmt", "sample", *RMT_SIZE),
    ("rmt", "estimate", *RMT_SIZE, "--word", "Z"),
    ("verify", "all", "--quick"),
    ("verify", "all", "--quick", "--rmt"),
]


def _subcommands(parser) -> dict:
    [action] = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_document_runs_cover_every_subcommand():
    groups = _subcommands(cli._build_parser())
    pairs = {(group, cmd) for group, sub in groups.items()
             for cmd in _subcommands(sub)}
    assert len(pairs) == 16
    assert {argv[:2] for argv in DOCUMENT_RUNS} == pairs


@pytest.mark.parametrize("group", ["nc", "cumulants", "model", "free", "factor",
                                   "rmt", "verify"])
def test_a_group_tree_reads_like_the_full_tree(group):
    def built(parser):
        return {name for name, sub in _subcommands(parser).items()
                if any(isinstance(a, argparse._SubParsersAction) for a in sub._actions)}

    full, one = cli._build_parser(), cli._build_parser(group)
    assert one.format_help() == full.format_help()
    assert built(one) == {group} and len(built(full)) == 7
    full_cmds = _subcommands(_subcommands(full)[group])
    one_cmds = _subcommands(_subcommands(one)[group])
    assert list(one_cmds) == list(full_cmds)
    for name, parser in one_cmds.items():
        assert parser.format_help() == full_cmds[name].format_help()
    # an option as first token builds every group, as no token does
    assert built(cli._build_parser("-h")) == built(cli._build_parser("--foo")) == built(full)


@pytest.mark.parametrize(
    "argv", DOCUMENT_RUNS,
    ids=lambda argv: " ".join(argv[:2]) + (" --rmt" if "--rmt" in argv else ""))
def test_main_names_op_and_provenance_of_every_subcommand(capsys, monkeypatch,
                                                          argv):
    from ncfree import verify
    # the document, not the checks: verify all runs none here
    monkeypatch.setattr(verify, "run_all", lambda **kwargs: [])
    doc = run_json(capsys, *argv)
    assert doc["op"] == f"{argv[0]} {argv[1]}"
    montecarlo = argv[0] == "rmt" or "--rmt" in argv
    assert doc["provenance"] == ("montecarlo" if montecarlo else "exact")


# ---------------------------------------------------------------------------
# start-up: each subcommand loads only its own layers

_RUN_AND_LIST_MODULES = """
import contextlib, io, json, sys
before = set(sys.modules)
import ncfree.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ncfree.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""

_HEAVY = {"dataclasses", "numpy", "scipy"}
_MODEL_LAYERS = {"ncfree.model", "ncfree.freeprob"}


@pytest.mark.parametrize("argv, absent", [
    (["nc", "enum", "--q", "4"], _HEAVY | _MODEL_LAYERS | {"ncfree.factors"}),
    (["cumulants", "from-moments", "--moments", "1,2,5"],
     _HEAVY | _MODEL_LAYERS | {"ncfree.factors"}),
    (["model", "z-moment", "--n", "2", "--m", "8"], _HEAVY | {"ncfree.factors"}),
    (["model", "tau", "--n", "2", "--word", "Z M[[1,0],[0,0]] Z"],
     _HEAVY | {"ncfree.factors"}),
    (["free", "check", "--n", "2", "--max-q", "2"], _HEAVY | {"ncfree.factors"}),
    (["factor", "dykema", "--r", "3", "--alpha", "1/2", "--d", "2"],
     _HEAVY | _MODEL_LAYERS),
    (["factor", "m3", "--n", "3"], _HEAVY),
    (["verify", "all", "--quick"], _HEAVY),
    (["rmt", "estimate", "--n", "2", "--N", "100", "--trials", "2",
      "--word", "Z M[[1,0],[0,0]]"], {"dataclasses", "scipy"}),
    (["rmt", "sample", "--n", "2", "--N", "100", "--trials", "2"],
     {"dataclasses", "scipy"}),
], ids=["nc-enum", "cumulants", "model-z-moment", "model-tau", "free-check",
        "factor-dykema", "factor-m3", "verify-quick", "rmt-estimate",
        "rmt-sample"])
def test_exact_subcommands_load_only_their_layers(package_env, argv, absent):
    out = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv],
                         env=package_env, check=True, capture_output=True,
                         text=True, timeout=120).stdout
    report = json.loads(out)
    assert report["code"] == 0
    loaded = set(report["loaded"])
    assert {m for m in loaded if m in absent or m.split(".")[0] in absent} == set()
    assert "ncfree.cli" in loaded


def test_parse_word_works_in_a_fresh_interpreter_before_main(package_env):
    script = ("import ncfree.cli\n"
              "word = ncfree.cli.parse_word('Z M[[1,0],[0,1]]')\n"
              "print([letter.is_z for letter in word], word[1].matrix[1][1])")
    out = subprocess.run([sys.executable, "-c", script], env=package_env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.split() == ["[True,", "False]", "1"]
