"""Command line front end.

Every subcommand prints one JSON document (sorted keys) on stdout with the
fields op, params, result, provenance, and version; diagnostics go to
stderr.  A handler returns its params and result (``free check`` and
``verify all`` also their exit code), and :func:`main` builds the document
around them: op is ``"<group> <cmd>"``, provenance is ``montecarlo`` for
the ``rmt`` subcommands and ``verify all --rmt`` and ``exact`` otherwise.
Exact subcommands exchange rationals as "p/q" strings; floats are confined
to the ``rmt`` subcommands.  Exit codes: 0 success, 1 verification failure
or internal inconsistency (``InconsistencyError``), 2 usage or input error.

Word letters use a compact text syntax, whitespace separated: ``Z`` for the
generator, ``M[[a,b],[c,d]]`` for a matrix letter with rational entries such
as ``1/2``.  Partitions are written as brace-wrapped blocks: ``{2,8,11}{5}``.

Only the partition and matrix layers load with this module; each handler
imports the layers it runs (``model``, ``freeprob``, ``factors``, ``rmt``,
``verify``), so an op pays start-up time for its own layers alone.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__, ncpart, ratmat
from .errors import (ArityError, GroundMismatchError, InconsistencyError,
                     NcfreeError, OutputError, SizeLimitError, WordSyntaxError)

if TYPE_CHECKING:
    from .model import ModelLetter

# nc pitilde grows with q in a fresh process on a two-core machine: one mark
# took 0.25 s and 29 MB at q=10**5 and 1.5 s and 138 MB at q=10**6; odd marks
# paired {1,3}{5,7}... cost quadratically in pi_tilde alone, 0.05 s at
# q=2000, 0.21 s at q=4000, 0.86 s at q=8000; the whole command at the limit
# with those 2500 arcs took 0.77 s and 113 MB
NC_PITILDE_LIMIT = 10_000
# free check builds n**2 letters of n**2 entries, then runs for each swept
# tuple of length q the memo lookups of its 2**q - 1 subwords, a Mobius sum
# over NC(q) and n**3-step integer matrix products: a cost of n**4 + sum over
# q of tuples(q) * (Catalan(q) + 100 + n**3 // 16), one unit about 0.5 us.
# The weights are a least-squares fit to fresh-process times on a two-core
# machine (Python 3.11) of 13 sweeps, n=2 to 29 and --max-q 2 to 7.  The
# budget admits n=3 --max-q 5 (6.3e6, 3.0 s), n=33 --max-q 2 (6.3e6, 2.7 s),
# n=10 --max-q 3 (5.1e6, 2.6 s) and n=4 --max-q 4 (2.2e6, 1.1 s); it refuses
# n=5 --max-q 4 (8.3e6, 4.1 s), n=11 --max-q 3 (8.4e6, 4.2 s) and n=2
# --max-q 7 (3.6e7, 17 s)
FREE_CHECK_BUDGET = 6_500_000


def _digit_limit_error() -> SizeLimitError:
    return SizeLimitError(f"exact result above Python's limit of "
                          f"{sys.get_int_max_str_digits()} digits per integer")


def _exact(value) -> str:
    """Text of an exact result: an int, a Fraction, or a factor description.

    Python refuses to print an int with more digits than
    ``sys.get_int_max_str_digits()``; such a result is a usage error.
    """
    try:
        return value.display() if hasattr(value, "display") else str(value)
    except ValueError as exc:
        raise _digit_limit_error() from exc


def _refuse_power_past_digit_limit(n: int, exponent: int) -> None:
    # refuse a result of at least n**exponent before computing it, where
    # _exact would refuse it after; n is a validated model size
    if exponent * math.log10(n) > (sys.get_int_max_str_digits() or math.inf):
        raise _digit_limit_error()


# ---------------------------------------------------------------------------
# input parsing helpers


def parse_word(text: str) -> tuple[ModelLetter, ...]:
    """Scan a whitespace-separated word of Z and M[[...]] letters."""
    from . import model
    letters = []
    for token in text.split():
        if token == "Z":
            letters.append(model.Z)
        elif token.startswith("M"):
            letters.append(model.matrix_letter(_parse_matrix_text(token[1:])))
        else:
            raise WordSyntaxError(
                f"unrecognized letter {token!r}; expected Z or M[[...],[...]]")
    if not letters:
        raise WordSyntaxError("empty word")
    return tuple(letters)


def _parse_matrix_text(text: str) -> list[list[Fraction]]:
    if not (text.startswith("[[") and text.endswith("]]")):
        raise WordSyntaxError(f"matrix literal must look like [[a,b],[c,d]], "
                              f"got {text!r}")
    rows = text[2:-2].split("],[")
    try:
        return [[ratmat.parse_rational(entry) for entry in row.split(",")]
                for row in rows]
    except NcfreeError as exc:
        raise WordSyntaxError(f"bad matrix literal {text!r}: {exc}") from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    # an empty item fails int() like any other non-integer
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise WordSyntaxError(f"expected comma-separated integers, got "
                              f"{text!r}") from exc


def _parse_rational_list(text: str) -> list[Fraction]:
    # an empty item, or an empty list, fails parse_rational
    return [ratmat.parse_rational(t) for t in text.split(",")]


# ---------------------------------------------------------------------------
# nc subcommands


def _cmd_nc_enum(args) -> tuple[dict, object]:
    if args.q < 0:
        raise ArityError(f"--q must be >= 0, got {args.q}")
    parts = ncpart.enumerate_nc(range(1, args.q + 1))
    return {"q": args.q}, {"count": len(parts),
                           "partitions": [str(p) for p in parts]}


def _cmd_nc_mobius(args) -> tuple[dict, object]:
    pi = ncpart.NonCrossingPartition.from_string(args.pi)
    sigma = ncpart.NonCrossingPartition.from_string(args.sigma)
    value = ncpart.mobius(pi, sigma)
    return {"pi": str(pi), "sigma": str(sigma)}, _exact(value)


def _cmd_nc_pitilde(args) -> tuple[dict, object]:
    if args.q > NC_PITILDE_LIMIT:
        raise SizeLimitError(f"nc pitilde takes at most --q {NC_PITILDE_LIMIT}, "
                             f"got --q {args.q}")
    D = _parse_int_list(args.d)
    if not all(1 <= i <= args.q for i in D):
        raise GroundMismatchError(f"marked positions {D} must lie in 1..{args.q}")
    marks = set(D)
    E = tuple(i for i in range(1, args.q + 1) if i not in marks)
    pi = ncpart.NonCrossingPartition.from_string(args.pi, ground=D)
    comp = ncpart.pi_tilde(D, E, pi)
    return {"q": args.q, "d": list(D), "pi": str(pi)}, str(comp)


# ---------------------------------------------------------------------------
# cumulants subcommands


def _cmd_cumulants(option: str, pad: int, transform,
                   args) -> tuple[dict, object]:
    # the list given as --<option> is the functional on words of length
    # 1, 2, ...; pad is its value on the empty word
    values = _parse_rational_list(getattr(args, option))
    # refuse an oversized list before the smaller transforms run
    ncpart._check_cap(len(values))
    table = [Fraction(pad)] + values
    out = [transform(lambda word: table[len(word)], ("x",) * q)
           for q in range(1, len(values) + 1)]
    return {option: [str(v) for v in values]}, [_exact(v) for v in out]


# ---------------------------------------------------------------------------
# model and free subcommands


def _cmd_word_trace(route: str, args) -> tuple[dict, object]:
    # route names the model function that computes the trace, tau_word
    # (model tau) or centering_moment (free product-moment); a name, since
    # model loads only when a handler runs
    from . import model
    word = parse_word(args.word)
    value = getattr(model, route)(word, model.ModelParams(args.n))
    return {"n": args.n, "word": args.word}, _exact(value)


def _cmd_model_pi_term(args) -> tuple[dict, object]:
    from . import model
    word = parse_word(args.word)
    params = model.ModelParams(args.n)
    D, _ = model._split_word(word, params)
    pi = ncpart.NonCrossingPartition.from_string(args.pi, ground=D)
    term = model.pi_term(word, pi, params)
    result = {
        "pi": str(term.pi),
        "pi_tilde": str(term.pi_tilde),
        "cumulant_factor": _exact(term.cumulant_factor),
        "loop_count": term.loop_count,
        "block_traces": [{"positions": list(v), "trace": _exact(t)}
                         for v, t in term.block_traces],
        "value": _exact(term.value),
    }
    return {"n": args.n, "word": args.word, "pi": str(pi)}, result


def _cmd_model_power(option: str, route: str, args) -> tuple[dict, object]:
    # route(e, params) for e given as --<option>: z_moment (model z-moment,
    # at least n**(m-1)) or dim_box (model dims, exactly n**(k-1))
    from . import model
    params = model.ModelParams(args.n)
    exponent = getattr(args, option)
    _refuse_power_past_digit_limit(args.n, exponent - 1)
    value = getattr(model, route)(exponent, params)
    return {"n": args.n, option: exponent}, _exact(value)


def _free_check_cost(n: int, max_q: int) -> int:
    # in FREE_CHECK_BUDGET's units; the sum stops once past the budget, so
    # a huge --max-q costs a few steps to refuse
    m = n * n
    cost = m * m
    for q in range(2, max_q + 1):
        if cost > FREE_CHECK_BUDGET:
            break
        tuples = (m + 1) ** q - 1 - m ** q
        cost += tuples * (ncpart.catalan(q) + 100 + n ** 3 // 16)
    return cost


def _cmd_free_check(args) -> tuple[dict, object, int]:
    from . import freeprob, model
    params_model = model.ModelParams(args.n)
    if _free_check_cost(args.n, args.max_q) > FREE_CHECK_BUDGET:
        raise SizeLimitError(f"free check --n {args.n} --max-q {args.max_q} is "
                             f"above the cost budget of {FREE_CHECK_BUDGET:,}")
    mats = [model.matrix_letter(ratmat.matrix_unit(args.n, i, j))
            for i in range(1, args.n + 1) for j in range(1, args.n + 1)]
    report = freeprob.freeness_check(
        [[model.Z], mats], args.max_q,
        lambda word: model.word_cumulant(word, params_model))
    result = {
        "certified": report.certified,
        "tuples_checked": report.tuples_checked,
        "max_q": report.max_q,
        "truncated": report.truncated,
        "violations": [{"word": model._word_label(w), "value": _exact(v)}
                       for w, v in report.violations],
    }
    return ({"n": args.n, "max_q": args.max_q}, result,
            0 if report.certified else 1)


# ---------------------------------------------------------------------------
# factor subcommands


def _cmd_factor_dykema(args) -> tuple[dict, object]:
    from . import factors
    desc = factors.dykema_free_product(
        ratmat.parse_rational(args.r), ratmat.parse_rational(args.alpha), args.d)
    return {"r": args.r, "alpha": args.alpha, "d": args.d}, _exact(desc)


def _cmd_factor_m3(args) -> tuple[dict, object]:
    from . import factors, model
    parameter = factors.m3_parameter(model.ModelParams(args.n))
    summand = factors.Summand(Fraction(1), factors.FREE_GROUP, parameter)
    return {"n": args.n}, _exact(summand)


# ---------------------------------------------------------------------------
# rmt subcommands


def _rmt_config(args):
    from . import rmt
    return rmt.SimulationConfig(n=args.n, N=args.N, trials=args.trials,
                                seed=args.seed)


def _cmd_rmt_sample(args) -> tuple[dict, object]:
    from . import rmt
    config = _rmt_config(args)
    eigs = rmt.sample_free_poisson(config)
    a, b = rmt.mp_support(config.rate, config.jump)
    result = {
        "count": int(eigs.size),
        "atom_mass": rmt.atom_mass_estimate(eigs, config),
        "mean": float(eigs.mean()),
        "second_moment": float((eigs ** 2).mean()),
        "support": [a, b],
    }
    if args.out:
        header = json.dumps(
            {"N": config.N, "n": config.n, "seed": config.seed,
             "trials": config.trials, "epsilon_atom": config.atom_threshold},
            sort_keys=True)
        try:
            with open(args.out, "w") as fh:
                fh.write(f"# {header}\n")
                fh.write("eigenvalue\n")
                # one trial's values at a time, never a float object per
                # eigenvalue of the whole sample
                for row in eigs:
                    fh.writelines(f"{value!r}\n" for value in row.tolist())
        except OSError as exc:
            raise OutputError(f"cannot write {args.out}: {exc.strerror}") from exc
        result["csv"] = args.out
    params = {"n": args.n, "N": args.N, "trials": args.trials, "seed": args.seed}
    return params, result


def _cmd_rmt_estimate(args) -> tuple[dict, object]:
    from . import rmt
    config = _rmt_config(args)
    word = parse_word(args.word)
    est = rmt.FreePairSampler(config).estimate(word)
    result = {"value": est.value, "std_error": est.std_error,
              "trials": est.trials, "std_error_ok": est.std_error_ok}
    params = {"n": args.n, "N": args.N, "trials": args.trials,
              "seed": args.seed, "word": args.word}
    return params, result


# ---------------------------------------------------------------------------
# verify


def _cmd_verify_all(args) -> tuple[dict, object, int]:
    from . import verify
    results = verify.run_all(
        quick=args.quick, include_rmt=args.rmt,
        log=lambda line: print(line, file=sys.stderr, flush=True))
    ok = all(r.ok for r in results)
    result = {"ok": ok,
              "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail,
                          "seconds": round(r.seconds, 3)} for r in results]}
    return {"quick": args.quick, "rmt": args.rmt}, result, 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser(first: Optional[str] = None) -> argparse.ArgumentParser:
    """The argparse tree, with the subcommands of the group that a command
    line's first token names, or of every group when it is None or an option;
    every group is listed either way, so usage and help read the same."""
    parser = argparse.ArgumentParser(
        prog="ncfree",
        description="Exact non-crossing partition calculus and the coupled "
                    "generator-plus-matrices moment model.")
    sub = parser.add_subparsers(dest="group", required=True)

    def commands(name: str, text: str):
        # the subcommand table of a group, or None when it is not built
        group_parser = sub.add_parser(name, help=text)
        if first is None or first.startswith("-") or first == name:
            return group_parser.add_subparsers(dest="cmd", required=True)

    # options that several subcommands share, declared once each; a
    # subcommand's parents come before its own options, in their order
    n_opt = argparse.ArgumentParser(add_help=False)
    n_opt.add_argument("--n", type=int, required=True)
    word_opt = argparse.ArgumentParser(add_help=False)
    word_opt.add_argument("--word", required=True)
    rmt_opt = argparse.ArgumentParser(add_help=False, parents=[n_opt])
    rmt_opt.add_argument("--N", type=int, required=True)
    rmt_opt.add_argument("--trials", type=int, default=20)
    rmt_opt.add_argument("--seed", type=int, default=0)

    if ncsub := commands("nc", "non-crossing partition calculus"):
        p = ncsub.add_parser("enum", help="enumerate NC(q)")
        p.add_argument("--q", type=int, required=True)
        p.set_defaults(handler=_cmd_nc_enum)
        p = ncsub.add_parser("mobius", help="Mobius function at a pair")
        p.add_argument("--pi", required=True)
        p.add_argument("--sigma", required=True)
        p.set_defaults(handler=_cmd_nc_mobius)
        p = ncsub.add_parser("pitilde", help="complement on the unmarked positions")
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--d", required=True, help="comma-separated marked positions")
        p.add_argument("--pi", required=True)
        p.set_defaults(handler=_cmd_nc_pitilde)

    if cumsub := commands("cumulants", "single-variable transforms"):
        p = cumsub.add_parser("from-moments", help="moment list to cumulant list")
        p.add_argument("--moments", required=True)
        p.set_defaults(handler=functools.partial(
            _cmd_cumulants, "moments", 1, ncpart.moments_to_cumulants))
        p = cumsub.add_parser("to-moments", help="cumulant list to moment list")
        p.add_argument("--cumulants", required=True)
        p.set_defaults(handler=functools.partial(
            _cmd_cumulants, "cumulants", 0, ncpart.cumulants_to_moments))

    if mdlsub := commands("model", "coupled moment model"):
        p = mdlsub.add_parser("tau", help="exact word trace",
                              parents=[n_opt, word_opt])
        p.set_defaults(handler=functools.partial(_cmd_word_trace, "tau_word"))
        p = mdlsub.add_parser("pi-term", help="one summand with loop bookkeeping",
                              parents=[n_opt, word_opt])
        p.add_argument("--pi", required=True)
        p.set_defaults(handler=_cmd_model_pi_term)
        p = mdlsub.add_parser("z-moment", help="moment of the generator",
                              parents=[n_opt])
        p.add_argument("--m", type=int, required=True)
        p.set_defaults(handler=functools.partial(_cmd_model_power, "m", "z_moment"))
        p = mdlsub.add_parser("dims", help="graded box dimension", parents=[n_opt])
        p.add_argument("--k", type=int, required=True)
        p.set_defaults(handler=functools.partial(_cmd_model_power, "k", "dim_box"))

    if freesub := commands("free", "free product engine"):
        p = freesub.add_parser("check", help="mixed-cumulant freeness certificate",
                               parents=[n_opt])
        p.add_argument("--max-q", type=int, default=4)
        p.set_defaults(handler=_cmd_free_check)
        p = freesub.add_parser("product-moment", help="trace via the centering route",
                               parents=[n_opt, word_opt])
        p.set_defaults(handler=functools.partial(_cmd_word_trace, "centering_moment"))

    if facsub := commands("factor", "factor parameter arithmetic"):
        p = facsub.add_parser("dykema", help="two-branch free product formula")
        p.add_argument("--r", required=True)
        p.add_argument("--alpha", required=True)
        p.add_argument("--d", type=int, required=True)
        p.set_defaults(handler=_cmd_factor_dykema)
        p = facsub.add_parser("m3", help="parameter of the coupled model's factor",
                              parents=[n_opt])
        p.set_defaults(handler=_cmd_factor_m3)

    if rmtsub := commands("rmt", "Monte Carlo random-matrix checks"):
        p = rmtsub.add_parser("sample", help="Wishart eigenvalue sample",
                              parents=[rmt_opt])
        p.add_argument("--out", help="write eigenvalues to this CSV file")
        p.set_defaults(handler=_cmd_rmt_sample)
        p = rmtsub.add_parser("estimate", help="Monte Carlo word trace estimate",
                              parents=[rmt_opt, word_opt])
        p.set_defaults(handler=_cmd_rmt_estimate)

    if versub := commands("verify", "acceptance checks"):
        p = versub.add_parser("all", help="run the exact acceptance suite")
        p.add_argument("--quick", action="store_true",
                       help="trimmed ranges, for smoke runs")
        p.add_argument("--rmt", action="store_true",
                       help="include the Monte Carlo criterion")
        p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a first token that is no option and names no group is refused as an
    # invalid choice before any group parses, so it builds no group
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        params, result, *code = args.handler(args)
    except NcfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the package disagreeing with itself is a failure, not bad input
        return 1 if isinstance(exc, InconsistencyError) else 2
    montecarlo = args.group == "rmt" or getattr(args, "rmt", False)
    doc = {"op": f"{args.group} {args.cmd}", "params": params, "result": result,
           "provenance": "montecarlo" if montecarlo else "exact",
           "version": __version__}
    print(json.dumps(doc, sort_keys=True))
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
