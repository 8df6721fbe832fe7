"""Command line front end.

Every subcommand prints one JSON document (sorted keys) on stdout with the
fields op, params, result, provenance, and version; diagnostics go to
stderr.  Exact subcommands exchange rationals as "p/q" strings; floats are
confined to the ``rmt`` subcommands.  Exit codes: 0 success, 1 verification
failure, 2 usage or input error.

Word letters use a compact text syntax, whitespace separated: ``Z`` for the
generator, ``M[[a,b],[c,d]]`` for a matrix letter with rational entries such
as ``1/2``.  Partitions are written as brace-wrapped blocks: ``{2,8,11}{5}``.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__, factors, freeprob, model, ncpart, ratmat
from .errors import (ArityError, ConfigError, GroundMismatchError, NcfreeError,
                     OutputError, SizeLimitError, WordSyntaxError)
from .model import ModelParams

EXACT = "exact"
MONTECARLO = "montecarlo"

# nc enum holds and prints all of NC(q): q=14 peaks at 1.9 GB resident on an
# 8 GB two-core machine, and q=15 would need about 7 GB
NC_ENUM_LIMIT = 14


def _doc(op: str, params: dict, result, provenance: str) -> dict:
    return {"op": op, "params": params, "result": result,
            "provenance": provenance, "version": __version__}


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


def parse_word(text: str) -> tuple[model.ModelLetter, ...]:
    """Scan a whitespace-separated word of Z and M[[...]] letters."""
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


def _cmd_nc_enum(args) -> tuple[dict, int]:
    if args.q < 0:
        raise ArityError(f"--q must be >= 0, got {args.q}")
    if args.q > NC_ENUM_LIMIT:
        raise SizeLimitError(f"nc enum lists at most NC({NC_ENUM_LIMIT}), got --q {args.q}")
    parts = ncpart.enumerate_nc(range(1, args.q + 1))
    result = {"count": len(parts), "partitions": [str(p) for p in parts]}
    return _doc("nc enum", {"q": args.q}, result, EXACT), 0


def _cmd_nc_mobius(args) -> tuple[dict, int]:
    pi = ncpart.NonCrossingPartition.from_string(args.pi)
    sigma = ncpart.NonCrossingPartition.from_string(args.sigma)
    value = ncpart.mobius(pi, sigma)
    params = {"pi": str(pi), "sigma": str(sigma)}
    return _doc("nc mobius", params, _exact(value), EXACT), 0


def _cmd_nc_pitilde(args) -> tuple[dict, int]:
    D = _parse_int_list(args.d)
    if not all(1 <= i <= args.q for i in D):
        raise GroundMismatchError(f"marked positions {D} must lie in 1..{args.q}")
    E = tuple(i for i in range(1, args.q + 1) if i not in D)
    pi = ncpart.NonCrossingPartition.from_string(args.pi, ground=D)
    comp = ncpart.pi_tilde(D, E, pi)
    params = {"q": args.q, "d": list(D), "pi": str(pi)}
    return _doc("nc pitilde", params, str(comp), EXACT), 0


# ---------------------------------------------------------------------------
# cumulants subcommands


def _cmd_cumulants(cmd: str, option: str, pad: int, transform,
                   args) -> tuple[dict, int]:
    # the list given as --<option> is the functional on words of length
    # 1, 2, ...; pad is its value on the empty word
    values = _parse_rational_list(getattr(args, option))
    # refuse an oversized list before the smaller transforms run
    ncpart._check_cap(len(values))
    table = [Fraction(pad)] + values
    out = [transform(lambda word: table[len(word)], ("x",) * q)
           for q in range(1, len(values) + 1)]
    params = {option: [str(v) for v in values]}
    return _doc(f"cumulants {cmd}", params, [_exact(v) for v in out], EXACT), 0


# ---------------------------------------------------------------------------
# model subcommands


def _cmd_model_tau(args) -> tuple[dict, int]:
    word = parse_word(args.word)
    value = model.tau_word(word, ModelParams(args.n))
    params = {"n": args.n, "word": args.word}
    return _doc("model tau", params, _exact(value), EXACT), 0


def _cmd_model_pi_term(args) -> tuple[dict, int]:
    word = parse_word(args.word)
    D, _ = model._split_word(word, ModelParams(args.n))
    pi = ncpart.NonCrossingPartition.from_string(args.pi, ground=D)
    term = model.pi_term(word, pi, ModelParams(args.n))
    result = {
        "pi": str(term.pi),
        "pi_tilde": str(term.pi_tilde),
        "cumulant_factor": _exact(term.cumulant_factor),
        "loop_count": term.loop_count,
        "block_traces": [{"positions": list(v), "trace": _exact(t)}
                         for v, t in term.block_traces],
        "value": _exact(term.value),
    }
    params = {"n": args.n, "word": args.word, "pi": str(pi)}
    return _doc("model pi-term", params, result, EXACT), 0


def _cmd_model_z_moment(args) -> tuple[dict, int]:
    params = ModelParams(args.n)
    _refuse_power_past_digit_limit(args.n, args.m - 1)  # z_moment >= n**(m-1)
    value = model.z_moment(args.m, params)
    return _doc("model z-moment", {"n": args.n, "m": args.m}, _exact(value),
                EXACT), 0


def _cmd_model_dims(args) -> tuple[dict, int]:
    params = ModelParams(args.n)
    _refuse_power_past_digit_limit(args.n, args.k - 1)
    value = model.dim_box(args.k, params)
    return _doc("model dims", {"n": args.n, "k": args.k}, _exact(value), EXACT), 0


# ---------------------------------------------------------------------------
# free subcommands


def _cmd_free_check(args) -> tuple[dict, int]:
    params_model = ModelParams(args.n)
    mats = [model.matrix_letter(ratmat.matrix_unit(args.n, i, j))
            for i in range(1, args.n + 1) for j in range(1, args.n + 1)]

    def source(word: tuple) -> Fraction:
        return model.tau_word(word, params_model)

    report = freeprob.freeness_check([[model.Z], mats], args.max_q, source)
    result = {
        "certified": report.certified,
        "tuples_checked": report.tuples_checked,
        "max_q": report.max_q,
        "truncated": report.truncated,
        "violations": [{"word": model._word_label(w), "value": _exact(v)}
                       for w, v in report.violations],
    }
    doc = _doc("free check", {"n": args.n, "max_q": args.max_q}, result, EXACT)
    return doc, 0 if report.certified else 1


def _cmd_free_product_moment(args) -> tuple[dict, int]:
    word = parse_word(args.word)
    value = model.centering_moment(word, ModelParams(args.n))
    params = {"n": args.n, "word": args.word}
    return _doc("free product-moment", params, _exact(value), EXACT), 0


# ---------------------------------------------------------------------------
# factor subcommands


def _cmd_factor_dykema(args) -> tuple[dict, int]:
    desc = factors.dykema_free_product(
        ratmat.parse_rational(args.r), ratmat.parse_rational(args.alpha), args.d)
    params = {"r": args.r, "alpha": args.alpha, "d": args.d}
    return _doc("factor dykema", params, _exact(desc), EXACT), 0


def _cmd_factor_m3(args) -> tuple[dict, int]:
    parameter = factors.m3_parameter(ModelParams(args.n))
    summand = factors.Summand(Fraction(1), factors.FREE_GROUP, parameter)
    return _doc("factor m3", {"n": args.n}, _exact(summand), EXACT), 0


# ---------------------------------------------------------------------------
# rmt subcommands


def _rmt_config(args):
    from . import rmt
    return rmt.SimulationConfig(n=args.n, N=args.N, trials=args.trials,
                                seed=args.seed)


def _cmd_rmt_sample(args) -> tuple[dict, int]:
    from . import rmt
    config = _rmt_config(args)
    eigs = rmt.sample_free_poisson(config, threads=args.threads)
    a, b = rmt.mp_support(config.rate, config.jump)
    result = {
        "count": int(eigs.size),
        "atom_mass": rmt.atom_mass_estimate(eigs, config),
        "mean": float(eigs.mean()),
        "second_moment": float((eigs ** 2).mean()),
        "support": [a, b],
    }
    params = {"n": args.n, "N": args.N, "trials": args.trials, "seed": args.seed}
    if args.out:
        header = json.dumps(
            {"N": config.N, "n": config.n, "seed": config.seed,
             "trials": config.trials, "epsilon_atom": config.atom_threshold},
            sort_keys=True)
        try:
            with open(args.out, "w") as fh:
                fh.write(f"# {header}\n")
                fh.write("eigenvalue\n")
                for value in eigs.ravel().tolist():
                    fh.write(f"{value!r}\n")
        except OSError as exc:
            raise OutputError(f"cannot write {args.out}: {exc.strerror}") from exc
        result["csv"] = args.out
    return _doc("rmt sample", params, result, MONTECARLO), 0


def _cmd_rmt_estimate(args) -> tuple[dict, int]:
    from . import rmt
    config = _rmt_config(args)
    word = parse_word(args.word)
    est = rmt.FreePairSampler(config).estimate(word, threads=args.threads)
    result = {"value": est.value, "std_error": est.std_error,
              "trials": est.trials, "std_error_ok": est.std_error_ok}
    params = {"n": args.n, "N": args.N, "trials": args.trials,
              "seed": args.seed, "word": args.word}
    return _doc("rmt estimate", params, result, MONTECARLO), 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify_all(args) -> tuple[dict, int]:
    from . import verify
    results = verify.run_all(
        quick=args.quick, include_rmt=args.rmt, threads=args.threads,
        log=lambda line: print(line, file=sys.stderr, flush=True))
    ok = all(r.ok for r in results)
    result = {"ok": ok,
              "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail}
                         for r in results]}
    params = {"quick": args.quick, "rmt": args.rmt}
    provenance = MONTECARLO if args.rmt else EXACT
    return _doc("verify all", params, result, provenance), 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfree",
        description="Exact non-crossing partition calculus and the coupled "
                    "generator-plus-matrices moment model.")
    sub = parser.add_subparsers(dest="group", required=True)

    def threads_opt(p):
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (default 1)")

    nc = sub.add_parser("nc", help="non-crossing partition calculus")
    ncsub = nc.add_subparsers(dest="cmd", required=True)
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

    cum = sub.add_parser("cumulants", help="single-variable transforms")
    cumsub = cum.add_subparsers(dest="cmd", required=True)
    p = cumsub.add_parser("from-moments", help="moment list to cumulant list")
    p.add_argument("--moments", required=True)
    p.set_defaults(handler=functools.partial(
        _cmd_cumulants, "from-moments", "moments", 1, ncpart.moments_to_cumulants))
    p = cumsub.add_parser("to-moments", help="cumulant list to moment list")
    p.add_argument("--cumulants", required=True)
    p.set_defaults(handler=functools.partial(
        _cmd_cumulants, "to-moments", "cumulants", 0, ncpart.cumulants_to_moments))

    mdl = sub.add_parser("model", help="coupled moment model")
    mdlsub = mdl.add_subparsers(dest="cmd", required=True)
    p = mdlsub.add_parser("tau", help="exact word trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_model_tau)
    p = mdlsub.add_parser("pi-term", help="one summand with loop bookkeeping")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--pi", required=True)
    p.set_defaults(handler=_cmd_model_pi_term)
    p = mdlsub.add_parser("z-moment", help="moment of the generator")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler=_cmd_model_z_moment)
    p = mdlsub.add_parser("dims", help="graded box dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_model_dims)

    free = sub.add_parser("free", help="free product engine")
    freesub = free.add_subparsers(dest="cmd", required=True)
    p = freesub.add_parser("check", help="mixed-cumulant freeness certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-q", type=int, default=4)
    p.set_defaults(handler=_cmd_free_check)
    p = freesub.add_parser("product-moment", help="trace via the centering route")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_free_product_moment)

    fac = sub.add_parser("factor", help="factor parameter arithmetic")
    facsub = fac.add_subparsers(dest="cmd", required=True)
    p = facsub.add_parser("dykema", help="two-branch free product formula")
    p.add_argument("--r", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_factor_dykema)
    p = facsub.add_parser("m3", help="parameter of the coupled model's factor")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_factor_m3)

    rmtp = sub.add_parser("rmt", help="Monte Carlo random-matrix checks")
    rmtsub = rmtp.add_subparsers(dest="cmd", required=True)
    p = rmtsub.add_parser("sample", help="Wishart eigenvalue sample")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write eigenvalues to this CSV file")
    threads_opt(p)
    p.set_defaults(handler=_cmd_rmt_sample)
    p = rmtsub.add_parser("estimate", help="Monte Carlo word trace estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--word", required=True)
    threads_opt(p)
    p.set_defaults(handler=_cmd_rmt_estimate)

    ver = sub.add_parser("verify", help="acceptance checks")
    versub = ver.add_subparsers(dest="cmd", required=True)
    p = versub.add_parser("all", help="run the exact acceptance suite")
    p.add_argument("--quick", action="store_true",
                   help="trimmed ranges, for smoke runs")
    p.add_argument("--rmt", action="store_true",
                   help="include the Monte Carlo criterion")
    threads_opt(p)
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        doc, code = args.handler(args)
    except NcfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(doc, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
