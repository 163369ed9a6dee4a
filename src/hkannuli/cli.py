"""Command-line front end.

Every subcommand supports ``--json`` and emits a deterministic report
(identical invocations produce identical bytes): no floats, sorted keys,
exact integers and word text throughout.  Exit codes: 0 success, 1
validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from typing import Optional, Sequence

from . import arcs, boundary, classify, jsjgraph, tangle
from .boundary import ParamError
from .freegroup import (are_conjugate, check_digit_budget, excerpt, format_word,
                        is_power_of_primitive, is_primitive, parse_word)

# Each handler returns (inputs, result, text lines, warnings); ``run``
# builds the report from them and writes it as JSON or as the lines.


def _params_from_args(args: argparse.Namespace) -> boundary.TypeKParams:
    return boundary.validate_params(args.p, args.q, args.delta, args.rho,
                                    args.beta, getattr(args, "lambda"), args.mu)


def _cmd_tangle_eval(args: argparse.Namespace):
    t = tangle.RationalTangle(tuple(args.twists))
    tangle.check_twist_budget(t.twists)
    value = tangle.cf_eval(t, args.convention)
    return ({"twists": list(t.twists), "convention": args.convention},
            {"fraction": str(value),
             "numerator": value.numerator,
             "denominator": value.denominator,
             "meridian_count": tangle.meridian_count(t, args.convention)},
            [str(value)], [])


def _cmd_arcs_crossings(args: argparse.Namespace):
    seq, ext = arcs.reference_crossings(args.rho, args.beta)
    kinds = arcs.crossing_duals(args.rho, args.beta)
    zetas = list(ext.zetas())
    return ({"rho": args.rho, "beta": args.beta},
            {"A": list(seq.entries),
             "A_hat": list(ext.entries),
             "kappa": list(ext.kappa),
             "zeta": zetas,
             "duals": list(kinds),
             "sigma": ext.sigma},
            [f"A      = {list(seq.entries)}",
             f"A-hat  = {list(ext.entries)}",
             f"kappa  = {list(ext.kappa)}",
             f"zeta   = {zetas}"], [])


def _params_json(params: boundary.TypeKParams) -> dict:
    return {"p": params.p, "q": params.q, "delta": params.delta, "rho": params.rho,
            "beta": params.beta, "lambda": params.lam, "mu": params.mu}


def _cmd_boundary_word(args: argparse.Namespace):
    params = _params_from_args(args)
    word = boundary.boundary_word(params, args.n)
    return (_params_json(params) | {"n": args.n},
            {"word": format_word(word),
             "abelianization": list(word.abelianization())},
            [format_word(word)], [])


def _census_payload(report: classify.CensusReport) -> dict:
    """The --json census, one record per n: O(span), so text mode skips it."""
    return {
        "params": _params_json(report.params),
        "window": list(report.window),
        "per_n": [{"n": n, "verdict": outcome.verdict.value, "evidence": outcome.evidence}
                  for n, outcome in report.outcomes()],
        "totals": {
            "certified": report.certified_count,
            "inconclusive_separating": len(report.inconclusive),
            "nonseparating_type": report.nonseparating_type.value,
            "non_certified_total": report.total_non_certified,
        },
    }


def _cmd_classify_typek(args: argparse.Namespace):
    report = classify.typeK_census(_params_from_args(args), args.range)
    return (_params_json(report.params) | {"range": args.range},
            _census_payload(report) if args.json else {},
            [f"window: {list(report.window)}",
             f"inconclusive separating n: {list(report.inconclusive)}",
             f"certified type 4-1: {report.certified_count} of {2 * args.range + 1}",
             f"non-certified total (incl. non-separating "
             f"{report.nonseparating_type.value}): {report.total_non_certified}"], [])


def _cmd_classify_typem(args: argparse.Namespace):
    kind = classify.classify_typeM(args.p)
    return ({"p": args.p},
            {"annulus_type": kind.value,
             "tangle_gate_integral": classify.typeM_tangle_gate(args.p)},
            [kind.value], [])


def _cmd_classify_types(args: argparse.Namespace):
    fact = None if args.cv_trivial is None else args.cv_trivial == "true"
    first, second = classify.classify_typeS(args.p, args.q, fact)
    return ({"p": args.p, "q": args.q, "cv_trivial": args.cv_trivial},
            {"annulus_types": [first.value, second.value]},
            [f"{first.value} {second.value}"], [])


def _cmd_classify_em(args: argparse.Namespace):
    params = classify.EmParams(args.l, args.m, args.n, args.p)
    graph = classify.em_jsj_graph(params, args.side)
    o_alpha, o_beta = classify.em_invariants(params)
    return ({"l": args.l, "m": args.m, "n": args.n, "p": args.p, "side": args.side},
            {"graph": graph.value, "o_alpha": o_alpha, "o_beta": o_beta},
            [graph.value], [classify.EM_WARNING])


def _cmd_word(args: argparse.Namespace):
    words = [parse_word(text) for text in args.words]
    if args.word_op == "conjugate":
        inputs = {"a": format_word(words[0]), "b": format_word(words[1])}
        value = are_conjugate(*words)
    else:
        inputs = {"word": format_word(words[0])}
        query = is_primitive if args.word_op == "primitive" else is_power_of_primitive
        value = query(words[0])
    return inputs, {"value": value}, ["true" if value else "false"], []


def _cmd_jsj_validate(args: argparse.Namespace):
    with open(args.file, "r", encoding="utf-8") as handle:
        graph = jsjgraph.parse_graph(handle.read())
    violations = jsjgraph.validate(graph)
    return ({"file": args.file},
            {"violations": [{"rule": v.rule, "lemma": v.lemma, "subject": v.subject}
                            for v in violations]},
            [f"{v.rule}: {v.subject} ({v.lemma})" for v in violations]
            or ["no violations"],
            jsjgraph.realizability_warnings(graph))


def _cmd_example_five_two(args: argparse.Namespace):
    report = classify.five_two_report(span=args.range)
    known = sorted(classify.FIVE_TWO_KNOWN_TYPES.items())
    payload = {}
    if args.json:
        payload = _census_payload(report)
        payload["known_types"] = {str(n): t.value for n, t in known}
        payload["bound_attained"] = report.total_non_certified == 5
    return ({"range": args.range}, payload,
            [f"window: {list(report.window)}",
             f"inconclusive separating n: {list(report.inconclusive)}",
             "known types: " + ", ".join(f"n={n}: {t.value}" for n, t in known),
             f"non-certified total: {report.total_non_certified} (sharp bound "
             f"attained: {str(report.total_non_certified == 5).lower()})"], [])


# -- parser ------------------------------------------------------------------

def _int(text: str) -> int:
    """``int`` under the digit budget, which PYTHONINTMAXSTRDIGITS cannot move;
    text that is not an integer is quoted by a bounded excerpt."""
    try:
        check_digit_budget(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {excerpt(text)}") from None


_INT = {"type": _int, "required": True}
_TYPEK = tuple((flag, _INT) for flag in
               ("--p", "--q", "--delta", "--rho", "--beta", "--lambda", "--mu"))

# group -> (help, {leaf -> (help or None, handler, arguments)}); every leaf
# also takes --json.
_COMMANDS = {
    "tangle": ("rational tangle arithmetic", {
        "eval": ("evaluate a continued fraction", _cmd_tangle_eval, (
            ("twists", {"nargs": "+", "type": _int, "metavar": "a"}),
            ("--convention", {"choices": tangle.CONVENTIONS, "default": "literal"}))),
    }),
    "arcs": ("arc crossing sequences", {
        "crossings": ("reference-arc crossing data", _cmd_arcs_crossings,
                      (("--rho", _INT), ("--beta", _INT))),
    }),
    "boundary": ("boundary words", {
        "word": ("n-th boundary word", _cmd_boundary_word, _TYPEK + (("--n", _INT),)),
    }),
    "classify": ("classification pipelines", {
        "type-k": ("census of separating annuli", _cmd_classify_typek,
                   _TYPEK + (("--range", _INT),)),
        "type-m": ("companion annulus type", _cmd_classify_typem, (("--p", _INT),)),
        "type-s": ("the two annulus types", _cmd_classify_types, (
            ("--p", _INT), ("--q", _INT),
            ("--cv-trivial", {"choices": ("true", "false"), "default": None}))),
        "em": ("induced-knot graph shape", _cmd_classify_em,
               tuple((flag, _INT) for flag in ("--l", "--m", "--n", "--p"))
               + (("--side", {"choices": ("plus", "minus"), "required": True}),)),
    }),
    "word": ("free-group word queries", {
        op: (None, _cmd_word, (("words", {"nargs": nargs, "metavar": "WORD"}),))
        for op, nargs in (("primitive", 1), ("power", 1), ("conjugate", 2))
    }),
    "jsj": ("decomposition-graph validation", {
        "validate": (None, _cmd_jsj_validate, (("file", {}),)),
    }),
    "example": ("worked examples", {
        "five-two": (None, _cmd_example_five_two,
                     (("--range", {"type": _int, "default": 100}),)),
    }),
}


class _Parser(argparse.ArgumentParser):
    """Quotes the argv text argparse echoes by a bounded excerpt; the
    subparsers it makes are of this class too."""

    def error(self, message: str):
        head, sep, rest = message.partition("invalid choice: ")
        if sep:  # the choice as its repr, then " (choose from ...)"
            value, choices_sep, choices = rest.rpartition(" (choose from ")
            message = f"{head}{sep}{excerpt(ast.literal_eval(value))}{choices_sep}{choices}"
        head, sep, rest = message.partition("unrecognized arguments: ")
        if sep and len(rest) > 40:  # argv joined as it is
            message = f"{head}{sep}{excerpt(rest)}"
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hkannuli",
        description="Annulus classification calculus for genus-two handlebody-knots")
    top = parser.add_subparsers(dest="command", required=True)
    for group, (group_help, leaves) in _COMMANDS.items():
        sub = top.add_parser(group, help=group_help).add_subparsers(
            dest=f"{group}_op", required=True)
        for name, (leaf_help, handler, arguments) in leaves.items():
            # any help= entry, even None, lists the leaf in its group's --help
            leaf = sub.add_parser(name, **({"help": leaf_help} if leaf_help else {}))
            for flag, spec in arguments:
                leaf.add_argument(flag, **spec)
            leaf.add_argument("--json", action="store_true")
            leaf.set_defaults(func=handler, command_name=f"{group} {name}")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse, dispatch and print; exit 1 on a rejected input and when
    ``jsj validate`` reports violations.

    Every integer read has a digit budget of its own, so CPython's int/str
    conversion limit is lifted while this runs: what is printed must not
    depend on PYTHONINTMAXSTRDIGITS.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        sys.set_int_max_str_digits(limit)


def _run(args: argparse.Namespace) -> int:
    try:
        inputs, result, lines, warnings = args.func(args)
    except (ValueError, OSError) as exc:
        prefix = "invalid parameters: " if isinstance(exc, ParamError) else ""
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:  # str(exc), name bounded
            message = f"[Errno {exc.errno}] {exc.strerror}: {excerpt(exc.filename)}"
        sys.stderr.write(f"error: {prefix}{message}\n")
        return 1
    if args.json:
        report = {"command": args.command_name, "inputs": inputs, "result": result,
                  "warnings": warnings}
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
    else:
        for line in lines + [f"warning: {w}" for w in warnings]:
            sys.stdout.write(line + "\n")
    return 1 if result.get("violations") else 0


def main() -> None:
    raise SystemExit(run())
