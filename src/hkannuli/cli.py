"""Command-line front end.

Every subcommand supports ``--json`` and emits a deterministic report
(identical invocations produce identical bytes): no floats, sorted keys,
exact integers and word text throughout.  Exit codes: 0 success, 1
validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator, Sequence

from . import arcs, boundary, classify, jsjgraph, tangle
from .boundary import ParamError
from .freegroup import (are_conjugate, check_digit_budget, excerpt, format_word,
                        is_power_of_primitive, is_primitive, parse_word)

# Each handler returns (inputs, result, text lines, warnings); ``_run``
# writes the report as one JSON line, or the lines and then the warnings.  A
# result value or a line that is long but regular is an iterator of its
# text's pieces, written as they come, so memory follows the output rather
# than its length.


# At most this many crossing runs, or census n, go into one piece of text.
_BATCH = 4096


def _list_text(runs: Sequence[tuple], field: int, texts: dict, sep: str,
               prefix: str = "") -> Iterator[str]:
    """``prefix + "[" + items joined by sep + "]"``, where each run
    ``(..., count)`` stands for ``count`` items of text ``texts[run[field]]``:
    one string repetition per run, runs joined in batches."""
    if not runs:
        yield prefix + "[]"
        return
    texts = {key: sep + text for key, text in texts.items()}
    first = texts[runs[0][field]]
    yield prefix + "[" + first[len(sep):] + first * (runs[0][-1] - 1)
    for start in range(1, len(runs), _BATCH):
        yield "".join([texts[run[field]] * run[-1] for run in runs[start:start + _BATCH]])
    yield "]"


# The type-K options, in ``TypeKParams`` field order.
_TYPEK_NAMES = ("p", "q", "delta", "rho", "beta", "lambda", "mu")


def _params_from_args(args: argparse.Namespace) -> boundary.TypeKParams:
    return boundary.validate_params(*[getattr(args, name) for name in _TYPEK_NAMES])


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
    # A-hat and its duals have 2*|beta| + rho entries but O(|beta|) runs
    # (dual, sign, count): they are written as repeated text per run
    runs = arcs.crossing_runs(args.rho, args.beta)
    base, kappa, zetas = arcs.reference_crossings(args.rho, args.beta)  # runs: a cache hit
    inputs = {"rho": args.rho, "beta": args.beta}
    if args.json:  # json.dumps writes a tuple as a list
        return (inputs,
                {"A": base,
                 "A_hat": _list_text(runs, 1, _SIGNS, ","),
                 "kappa": kappa,
                 "zeta": zetas,
                 "duals": _list_text(runs, 0, _DUALS, ","),
                 "sigma": sum(run[2] for run in runs)}, [], [])
    return (inputs, {},
            [f"A      = {list(base)}",
             _list_text(runs, 1, _SIGNS, ", ", "A-hat  = "),
             f"kappa  = {list(kappa)}",
             f"zeta   = {list(zetas)}"], [])


_SIGNS = {1: "1", -1: "-1"}
_DUALS = {dual: f'"{dual}"' for dual in ("d_e", "d_o", "s0p")}


def _params_json(params: boundary.TypeKParams) -> dict:
    return dict(zip(_TYPEK_NAMES, params._astuple()))


def _cmd_boundary_word(args: argparse.Namespace):
    params = _params_from_args(args)
    word = boundary.boundary_word(params, args.n)
    text = format_word(word)
    return (_params_json(params) | {"n": args.n},
            {"word": text, "abelianization": list(word.abelianization())},
            [text], [])


def _census(args: argparse.Namespace, params: boundary.TypeKParams):
    """The census over ``--range``: the report, the --json payload (empty
    in text mode; ``per_n``, one record per n, is written as text) and the
    first two text lines."""
    report = classify.typeK_census(params, args.range)
    payload = {
        "params": _params_json(params),
        "window": list(report.window),
        "per_n": _per_n_text(report),
        "totals": {
            "certified": report.certified_count,
            "inconclusive_separating": len(report.inconclusive),
            "nonseparating_type": report.nonseparating_type.value,
            "non_certified_total": report.total_non_certified,
        },
    } if args.json else {}
    return report, payload, [f"window: {list(report.window)}",
                             f"inconclusive separating n: {list(report.inconclusive)}"]


def _per_n_text(report: classify.CensusReport) -> Iterator[str]:
    """``per_n`` as JSON text.  The at most four window entries go through
    ``_json_text``; every other n has the same Cho-Koda record, so each run
    of them is one join of the n between that record's two constant halves."""
    def record(n: int, outcome: classify.ClassificationOutcome) -> str:
        return "".join(_json_text({"n": n, "verdict": outcome.verdict.value,
                                   "evidence": outcome.evidence}))

    head, tail = record(0, classify.CHO_KODA).split('"n":0')
    head += '"n":'
    between = tail + "," + head
    # window entries are sorted by n; the span's end closes the last run
    bounds = [(e.n, record(e.n, e.outcome)) for e in report.window_entries]
    yield "["
    sep, n = "", -report.span
    for stop, text in bounds + [(report.span + 1, None)]:
        for start in range(n, stop, _BATCH):
            numbers = map(str, range(start, min(start + _BATCH, stop)))
            yield sep + head + between.join(numbers) + tail
            sep = ","
        if text is not None:
            yield sep + text
            sep, n = ",", stop + 1
    yield "]"


def _cmd_classify_typek(args: argparse.Namespace):
    params = _params_from_args(args)
    report, payload, lines = _census(args, params)
    return (_params_json(params) | {"range": args.range}, payload,
            lines + [f"certified type 4-1: {report.certified_count} of {2 * args.range + 1}",
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
        text = handle.read(jsjgraph.GRAPH_BUDGET + 1)  # /dev/zero too ends here
    if len(text) > jsjgraph.GRAPH_BUDGET:
        raise ValueError(f"graph file must be at most {jsjgraph.GRAPH_BUDGET} characters")
    graph = jsjgraph.parse_graph(text)
    violations = jsjgraph.validate(graph)
    return ({"file": args.file},
            {"violations": [{"rule": v.rule, "lemma": v.lemma, "subject": v.subject}
                            for v in violations]},
            [f"{v.rule}: {v.subject} ({v.lemma})" for v in violations]
            or ["no violations"],
            jsjgraph.realizability_warnings(graph))


def _cmd_example_five_two(args: argparse.Namespace):
    report, payload, lines = _census(args, classify.FIVE_TWO_PARAMS)
    known = sorted(classify.FIVE_TWO_KNOWN_TYPES.items())
    attained = report.total_non_certified == 5
    if args.json:
        payload["known_types"] = {str(n): t.value for n, t in known}
        payload["bound_attained"] = attained
    return ({"range": args.range}, payload,
            lines + ["known types: " + ", ".join(f"n={n}: {t.value}" for n, t in known),
                     f"non-certified total: {report.total_non_certified} (sharp bound "
                     f"attained: {str(attained).lower()})"], [])


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
_TYPEK = tuple((f"--{name}", _INT) for name in _TYPEK_NAMES)

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
        import ast  # here, not at startup: only usage errors need it

        head, sep, rest = message.partition("invalid choice: ")
        if sep:  # the choice as its repr, then " (choose from ...)"
            value, choices_sep, choices = rest.rpartition(" (choose from ")
            message = f"{head}{sep}{excerpt(ast.literal_eval(value))}{choices_sep}{choices}"
        head, sep, rest = message.partition("unrecognized arguments: ")
        if sep and len(rest) > 40:  # argv joined as it is
            message = f"{head}{sep}{excerpt(rest)}"
        super().error(message)


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """Every group, and the leaves of each group whose name is a token of argv."""
    parser = _Parser(
        prog="hkannuli",
        description="Annulus classification calculus for genus-two handlebody-knots")
    top = parser.add_subparsers(dest="command", required=True)
    for group, (group_help, leaves) in _COMMANDS.items():
        sub = top.add_parser(group, help=group_help).add_subparsers(
            dest=f"{group}_op", required=True)
        if group not in argv:
            continue
        for name, (leaf_help, handler, arguments) in leaves.items():
            # any help= entry, even None, lists the leaf in its group's --help
            leaf = sub.add_parser(name, **({"help": leaf_help} if leaf_help else {}))
            for flag, spec in arguments:
                leaf.add_argument(flag, **spec)
            leaf.add_argument("--json", action="store_true")
            leaf.set_defaults(func=handler, command_name=f"{group} {name}")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse, dispatch and print; exit 1 on a rejected input and when
    ``jsj validate`` reports violations.

    Every integer read has a digit budget of its own, so CPython's int/str
    conversion limit is lifted while this runs: what is printed must not
    depend on PYTHONINTMAXSTRDIGITS.
    """
    argv = sys.argv[1:] if argv is None else argv
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser(argv).parse_args(argv))
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
        lines = [_json_text({"command": args.command_name, "inputs": inputs,
                             "result": result, "warnings": warnings})]
    else:
        lines = lines + [f"warning: {w}" for w in warnings]
    for line in lines:
        sys.stdout.writelines([line] if isinstance(line, str) else line)
        sys.stdout.write("\n")
    return 1 if result.get("violations") else 0


def _json_text(value: object) -> Iterator[str]:
    """``value`` as JSON text with sorted keys and no spaces, in pieces.  A
    text iterator, allowed only as a dict value, is written as its pieces."""
    import json  # here, not at startup: text mode needs none

    if isinstance(value, Iterator):
        yield from value
    elif isinstance(value, dict) and value:
        sep = "{"
        for key in sorted(value):
            yield sep + json.dumps(key) + ":"
            yield from _json_text(value[key])
            sep = ","
        yield "}"
    else:
        yield json.dumps(value, sort_keys=True, separators=(",", ":"))


def main() -> None:
    try:
        try:
            code = run()
        finally:  # also after argparse's --help, which exits by SystemExit
            sys.stdout.flush()
    except BrokenPipeError as exc:  # a reader closed stdout; the flush at exit must not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: {exc}\n")
        code = 1
    raise SystemExit(code)
