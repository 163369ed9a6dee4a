import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hkannuli import arcs, boundary, classify, cli
from hkannuli.cli import run
from hkannuli.freegroup import DIGIT_BUDGET, format_word, parse_word


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# sha256 of stdout for each command line in the README, run without and
# with --json; the graph file is the README's sample saved as my.graph.
README_DIGESTS = {
    "hkannuli tangle eval --convention mirrored -- -3 2 0": (
        "466ba73030d773db98547c0d817e5b8defc68020ec4b1e43e9009652cbd8a9d1",
        "092199c27721147afd9f307d801182d1310091d480d34337a94a079cfb1de490"),
    "hkannuli arcs crossings --rho 2 --beta -1 --json": (
        "922ca85a492166f6800937694e31b6a2a3f4025ae0461c32019fed2737eade41",
        "61d7d8e224ef5ad47484baa4aa353b382b47afea3693442dfa59593a7b718b9a"),
    "hkannuli boundary word --p 2 --q 1 --delta 0 --rho 0 --beta 0 --lambda 1 --mu 0 --n 5": (
        "eca73e9906361a81bcc36ec1886b10ad35a31bedff902ead027c46d97d3fb166",
        "f8ddeb325b9a26298526b5d791fbb6067299d4394cfe5a273db78348c17821d0"),
    "hkannuli classify type-k --p 2 --q 1 --delta 0 --rho 0 --beta 0 --lambda 1 --mu 0 "
    "--range 100": (
        "1f25c5c83f52b78f04ed880b9a636cd8dc351304a6b8614fac818fa7de75e273",
        "886c69be99a58fa521da63fdfeb107f6ada7ba2d00457ebea72daef5d6367fdd"),
    "hkannuli classify type-m --p -1": (
        "33fcb0338e64b95d0781a28321cefa130309f5613ff25719dbdef4ab57b2c3fa",
        "68b63ea039cea736fe0173bc79e1af5419d50fe45d53b3bb200df4847dbac9f1"),
    "hkannuli classify type-s --p 3 --q 2": (
        "c3f3347091cfe2314d92b4d09fefdabd6725a4791caad7d170e88bd10abb93a5",
        "f1f40cb47ddd364d1d9cb96bc84cb537e4fe6419fa586f966016e68e2f4f6ca7"),
    "hkannuli classify em --l 3 --m 1 --n 0 --p 1 --side plus": (
        "3ac364cc709d593c62962ab520a4873527cccf1bb937058973f7c1fb92a6b60b",
        "042e64640d64a37e731fded7ea96b0faff1d70306905793b219678a782b0254b"),
    'hkannuli word primitive "v u^2"': (
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
        "d0df0264ba5db4a3516714355783842aaab953ac4e4b6b4126968951eef96c21"),
    'hkannuli word conjugate "u v" "v u"': (
        "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
        "9935dc526ae8f94cc342eb2622a0d4b3c6ba4e2ffbd742a181661b381ce85ea3"),
    "hkannuli jsj validate my.graph": (
        "ac80f4363e4738b7e2a990d0706ddef960f33685520d7e5e13c2d3f8b9b707b9",
        "f75c39813467032d25ea647787662d4ece2ed958cfc14e7bc31b97dfc8e9132f"),
    "hkannuli example five-two": (
        "0d84b28531de6a86dcecb7cb1405c67743c2dcc598474b783c22dfb5a3cac270",
        "d744d4816dcb538f97a1587382ab08034809f2bb3ca50f725b19047728caec2c"),
}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tangle_eval(capsys):
    code, out, _ = invoke(capsys, "tangle", "eval", "--", "1", "2", "3")
    assert code == 0 and out == "10/3\n"
    code, out, _ = invoke(capsys, "tangle", "eval", "--convention", "mirrored",
                          "--", "-3", "2", "0")
    assert code == 0 and out == "3/7\n"


def test_tangle_eval_json_deterministic(capsys):
    args = ("tangle", "eval", "--json", "--", "2", "0")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["result"]["fraction"] == "1/2"
    assert payload["result"]["meridian_count"] == 1


def test_arcs_crossings(capsys):
    code, out, _ = invoke(capsys, "arcs", "crossings", "--rho", "2", "--beta", "-1",
                          "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["A"] == [-1, 1]
    assert payload["result"]["A_hat"] == [-1, -1, -1, 1]
    code, _, err = invoke(capsys, "arcs", "crossings", "--rho", "3", "--beta", "1")
    assert code == 1 and "invalid slope" in err
    code, _, err = invoke(capsys, "arcs", "crossings", "--rho", "-1", "--beta", "0")
    assert code == 1 and err == "error: rho must be non-negative\n"


def test_boundary_word_round_trips(capsys):
    args = ("boundary", "word", "--p", "2", "--q", "1", "--delta", "0",
            "--rho", "0", "--beta", "0", "--lambda", "1", "--mu", "0", "--n", "7")
    code, out, _ = invoke(capsys, *args)
    assert code == 0
    word = parse_word(out.strip())
    assert format_word(word) == "v^7 u^8"


def test_boundary_word_invalid_params(capsys):
    args = ("boundary", "word", "--p", "1", "--q", "1", "--delta", "0",
            "--rho", "0", "--beta", "0", "--lambda", "0", "--mu", "0", "--n", "0")
    code, _, err = invoke(capsys, *args)
    assert code == 1 and "invalid parameters" in err


def test_word_queries(capsys):
    code, out, _ = invoke(capsys, "word", "primitive", "v u^2")
    assert code == 0 and out == "true\n"
    code, out, _ = invoke(capsys, "word", "power", "v^2 u^3")
    assert code == 0 and out == "false\n"
    code, out, _ = invoke(capsys, "word", "conjugate", "u v", "v u")
    assert code == 0 and out == "true\n"
    code, _, err = invoke(capsys, "word", "primitive", "zebra")
    assert code == 1 and "cannot parse" in err


def test_classify_typem_types_em(capsys):
    code, out, _ = invoke(capsys, "classify", "type-m", "--p", "-1")
    assert code == 0 and out == "3-2ii\n"
    code, out, _ = invoke(capsys, "classify", "type-s", "--p", "3", "--q", "2")
    assert code == 0 and out == "3-2ii 3-2i\n"
    code, _, err = invoke(capsys, "classify", "type-s", "--p", "2", "--q", "1")
    assert code == 1 and "external knot-triviality fact required" in err
    code, out, _ = invoke(capsys, "classify", "em", "--l", "3", "--m", "1",
                          "--n", "0", "--p", "1", "--side", "plus")
    assert code == 0 and out.startswith("graph-M\n")


def test_classify_typek_json(capsys):
    args = ("classify", "type-k", "--p", "2", "--q", "1", "--delta", "0",
            "--rho", "0", "--beta", "0", "--lambda", "1", "--mu", "0",
            "--range", "10", "--json")
    code, out, _ = invoke(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["window"] == [-2, -1, 0, 1]
    assert payload["result"]["totals"]["non_certified_total"] == 5
    verdicts = {entry["n"]: entry["verdict"] for entry in payload["result"]["per_n"]}
    assert verdicts[5] == "type-4-1" and verdicts[0] == "inconclusive"


def test_example_five_two(capsys):
    code, out, _ = invoke(capsys, "example", "five-two", "--range", "20")
    assert code == 0
    assert "window: [-2, -1, 0, 1]" in out
    assert "sharp bound attained: true" in out
    args = ("example", "five-two", "--range", "20", "--json")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


@pytest.mark.parametrize("command", [
    ("classify", "type-k", "--p", "2", "--q", "1", "--delta", "0", "--rho", "0",
     "--beta", "0", "--lambda", "1", "--mu", "0"),
    ("example", "five-two"),
], ids=["type-k", "five-two"])
def test_range_budget(capsys, command):
    code, out, err = invoke(capsys, *command, "--range", "100001")
    assert (code, out, err) == (1, "", "error: span must be at most 100000\n")


def test_digit_budget(tmp_path, capsys):
    reason = "integers must have at most 640 digits"
    digits = "9" * 641
    assert invoke(capsys, "word", "power", f"u^{digits}") == (1, "", f"error: {reason}\n")
    path = tmp_path / "huge.graph"
    path.write_text(f"node x ifibered\nnode s seifert\nedge a x s slope=prod:{digits}/1\n")
    assert invoke(capsys, "jsj", "validate", str(path)) == (1, "", f"error: line 3: {reason}\n")


@pytest.mark.parametrize("exponent", ["10000000000", "100000000000000000000"])
def test_word_primitive_one_block_huge_exponent(capsys, exponent):
    # g^e is its own minimal core: the Whitehead loop never raises it to e
    assert invoke(capsys, "word", "primitive", f"u^{exponent}") == (0, "false\n", "")
    assert invoke(capsys, "word", "power", f"v^-{exponent}") == (0, "true\n", "")


def invoke_argv(argv):
    """Exit code, stdout and stderr of one ``run``, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("head, tail", [
    (["classify", "type-m", "--p"], []),
    (["tangle", "eval", "--", "1"], []),
    (["example", "five-two", "--range"], ["--json"]),
], ids=["option", "twist", "range"])
def test_argv_digit_budget(head, tail):
    at_budget = invoke_argv(head + ["9" * DIGIT_BUDGET] + tail)
    assert at_budget[0] in (0, 1) and "digits" not in at_budget[2]
    code, out, err = invoke_argv(head + ["-" + "9" * (DIGIT_BUDGET + 1)] + tail)
    assert (code, out) == (2, "")
    assert err.endswith(f": integers must have at most {DIGIT_BUDGET} digits\n")
    assert "99" not in err


def test_argv_not_an_integer():
    code, out, err = invoke_argv(["arcs", "crossings", "--rho", "two", "--beta", "0"])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --rho: invalid int value: 'two'\n")


def test_argv_digit_budget_ignores_interpreter_limit():
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "hkannuli", "classify", "type-m",
                           "--p", "9" * 5000], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(f"integers must have at most {DIGIT_BUDGET} digits\n")


def test_argv_not_an_integer_echo_is_bounded():
    code, out, err = invoke_argv(["classify", "type-m", "--p", "x" * 5000])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --p: invalid int value: {'x' * 40!r}...\n")
    assert len(err) < 300
    code, out, err = invoke_argv(["word", "primitive", "x" * 5000])
    assert (code, out, err) == (1, "", f"error: cannot parse word at {'x' * 40!r}...\n")


X5000 = "x" * 5000


@pytest.mark.parametrize("argv, graph, expected", [
    (["classify", "em", "--l", "1", "--m", "1", "--n", "1", "--p", "1", "--side", X5000],
     None, 2),
    (["classify", "type-m", "--p", "1", "--" + X5000], None, 2),
    (["jsj", "validate"], f"edge a x y slope={X5000}\n", 1),
    (["jsj", "validate"], f"{X5000} a\n", 1),
    (["jsj", "validate"], f"node a {X5000}\n", 1),
    (["jsj", "validate"], f"edge a x y label={X5000}\n", 1),
    (["jsj", "validate"], f"edge a x y {X5000}=1\n", 1),
    (["jsj", "validate", X5000], None, 1),
], ids=["choice", "unrecognized", "slope", "directive", "node-kind", "label", "attribute",
        "os-error"])
def test_bad_text_echo_is_bounded(tmp_path, argv, graph, expected):
    if graph is not None:
        path = tmp_path / "bad.graph"
        path.write_text(graph)
        argv = argv + [str(path)]
    code, out, err = invoke_argv(argv)
    assert (code, out) == (expected, "")
    assert len(err.encode()) < 300 and "x" * 41 not in err


TYPEK_TEXT = ["classify", "type-k", "--p", "3", "--q", "2", "--delta", "1", "--rho", "1",
              "--beta", "100", "--lambda", "0", "--mu", "0", "--range", "100000"]


@pytest.mark.parametrize("argv", [TYPEK_TEXT, ["example", "five-two", "--range", "100000"]],
                         ids=["type-k", "five-two"])
def test_text_census_builds_no_payload(monkeypatch, capsys, argv):
    def refuse(report):
        raise AssertionError("text mode built the per-n payload")

    monkeypatch.setattr(cli, "_census_payload", refuse)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0 and out.startswith("window: ")


# Linux carries a parent's peak RSS into the ru_maxrss of the child it execs,
# so a small interpreter, not the test process, starts the measured children.
_PEAK_KIB = """
import os, subprocess, sys
for line in sys.argv[1:]:
    proc = subprocess.Popen([sys.executable, "-m", "hkannuli"] + line.split(),
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(proc.returncode, usage.ru_maxrss)
"""


@pytest.mark.skipif(sys.platform != "linux" or not hasattr(os, "wait4"),
                    reason="reads the child's ru_maxrss in KiB through os.wait4")
def test_text_census_memory_follows_output():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PEAK_KIB, "example five-two --range 10",
                           " ".join(TYPEK_TEXT)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    (startup_code, startup), (census_code, census) = (
        map(int, line.split()) for line in proc.stdout.splitlines())
    assert (startup_code, census_code) == (0, 0)
    assert census <= startup + 2048, (startup, census)


NINES = "9" * DIGIT_BUDGET


@pytest.mark.parametrize("argv", [
    ["classify", "em", "--l", NINES, "--m", NINES, "--n", "0", "--p", NINES,
     "--side", "plus", "--json"],
    ["boundary", "word", "--p", "3", "--q", "2", "--delta", "1", "--rho", "1", "--beta", "0",
     "--lambda", NINES, "--mu", NINES, "--n", NINES],
], ids=["em", "boundary"])
def test_printed_integers_ignore_interpreter_limit(argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    results = []
    for limit in (None, "640"):
        proc = subprocess.run([sys.executable, "-m", "hkannuli"] + argv, capture_output=True,
                              text=True, timeout=60,
                              env=env if limit is None else dict(env, PYTHONINTMAXSTRDIGITS=limit))
        results.append((proc.returncode, proc.stdout))
    assert results[0] == results[1]
    assert results[0][0] == 0 and len(results[0][1]) > DIGIT_BUDGET


@pytest.mark.parametrize("at_budget, past_budget", [
    # six twists of 10^640 - 1, then 10^460 - 2 or 10^460 - 1: the product
    # prod(|a_i| + 1) is just below 10^4300, or exactly 10^4300
    ([NINES] * 6 + ["9" * 459 + "8"], [NINES] * 6 + ["9" * 460]),
    # 2^14284 < 10^4300 <= 2^14285
    (["1"] * 14284, ["-1"] * 14285),
], ids=["wide", "long"])
def test_tangle_twist_budget(at_budget, past_budget):
    code, out, err = invoke_argv(["tangle", "eval", "--"] + at_budget)
    assert code == 0 and err == "" and out.count("/") == 1
    assert invoke_argv(["tangle", "eval", "--"] + past_budget) == (
        1, "", "error: twist product prod(|a_i| + 1) must be below 10^4300\n")


def _integer_commands():
    """(command, fixed argv, integer options) of every leaf with an integer
    option; a positional option is named without a leading dash."""
    for group, (_, leaves) in cli._COMMANDS.items():
        for leaf, (_, _, arguments) in leaves.items():
            flags = [flag for flag, spec in arguments if spec.get("type") is cli._int]
            fixed = [part for flag, spec in arguments
                     if spec.get("required") and "choices" in spec
                     for part in (flag, spec["choices"][0])]
            if flags:
                yield [group, leaf], fixed, flags


INTEGER_COMMANDS = list(_integer_commands())
BUDGETS = (boundary.BETA_BUDGET, classify.SPAN_BUDGET, arcs.CROSSING_BUDGET)
INTEGER_TEXT = st.one_of(
    st.integers(-5, 5).map(str),
    st.sampled_from([str(sign * (b + step)) for b in BUDGETS
                     for step in (-1, 1) for sign in (1, -1)]),
    st.sampled_from(["9" * (DIGIT_BUDGET + step) for step in (-1, 0, 1)]),
    st.tuples(st.sampled_from(["", "-"]), st.sampled_from("123456789"),
              st.integers(DIGIT_BUDGET + 1, 5000)).map(lambda t: t[0] + t[1] * t[2]),
)


def test_integer_commands_cover_every_integer_option():
    specs = [spec for _, leaves in cli._COMMANDS.values()
             for _, _, arguments in leaves.values() for _, spec in arguments]
    assert all(spec.get("type") in (None, cli._int) for spec in specs)
    flags = {(" ".join(command), flag) for command, _, flags in INTEGER_COMMANDS
             for flag in flags}
    assert len(INTEGER_COMMANDS) == 8 and ("tangle eval", "twists") in flags
    assert ("classify em", "--p") in flags and len(flags) == 27


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_integer_argv_fuzz(data):
    """Every integer option, through ``run``: an answer, a rejection (exit 1)
    or a usage error (exit 2), never a traceback; nothing on stdout when it
    fails, at most a line or two on stderr, and every integer past the digit
    budget refused as a usage error.  Word arguments are left out: a
    multi-block word with a huge exponent, as in ``u^1000000000 v``, keeps
    the Whitehead descent running for hours instead of failing."""
    command, fixed, flags = data.draw(st.sampled_from(INTEGER_COMMANDS))
    argv = command + fixed + data.draw(st.sampled_from([[], ["--json"]]))
    values = []
    for flag in flags:
        if flag.startswith("-"):
            value = data.draw(INTEGER_TEXT)
            argv += [flag, value]
            values.append(value)
        else:
            positional = data.draw(st.lists(INTEGER_TEXT, min_size=1, max_size=3))
            argv += ["--"] + positional
            values += positional
    code, out, err = invoke_argv(argv)
    assert code in (0, 1, 2), argv
    assert code == 0 or out == ""
    assert len(err.encode()) < 1024
    if any(len(v.lstrip("-")) > DIGIT_BUDGET for v in values):
        assert code == 2 and f"at most {DIGIT_BUDGET} digits" in err


@pytest.mark.parametrize("rho, beta", [("1000001", "0"), ("999999", "-1")])
def test_crossing_budget(capsys, rho, beta):
    code, out, err = invoke(capsys, "arcs", "crossings", "--rho", rho, "--beta", beta)
    assert (code, out, err) == (
        1, "", "error: crossing count 2*|beta| + rho must be at most 1000000\n")


@pytest.mark.parametrize("command", [
    ("boundary", "word", "--n", "3"),
    ("classify", "type-k", "--range", "5"),
], ids=["boundary-word", "type-k"])
@pytest.mark.parametrize("beta", ["100001", "-100001"])
def test_beta_budget(capsys, command, beta):
    code, out, err = invoke(capsys, *command, "--p", "3", "--q", "2", "--delta", "1",
                            "--rho", "1", "--beta", beta, "--lambda", "0", "--mu", "0")
    assert (code, out, err) == (1, "", "error: |beta| must be at most 100000\n")


@pytest.mark.parametrize("command", [
    ("boundary", "word", "--n", "3"),
    ("classify", "type-k", "--range", "5"),
], ids=["boundary-word", "type-k"])
def test_rho_does_not_change_boundary_words(capsys, command):
    outputs = []
    for rho in ("1000000001", "1"):
        code, out, _ = invoke(capsys, *command, "--p", "3", "--q", "2", "--delta", "1",
                              "--rho", rho, "--beta", "0", "--lambda", "0", "--mu", "0")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_jsj_validate(tmp_path, capsys):
    clean = tmp_path / "clean.graph"
    clean.write_text("node x simple\n")
    code, out, _ = invoke(capsys, "jsj", "validate", str(clean))
    assert code == 0 and "no violations" in out

    bad = tmp_path / "bad.graph"
    bad.write_text("node x ifibered\nedge a x x label=2-1\n")
    code, out, _ = invoke(capsys, "jsj", "validate", str(bad), "--json")
    assert code == 1
    payload = json.loads(out)
    rules = {v["rule"] for v in payload["result"]["violations"]}
    assert "loop-edge-law" in rules


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        run(["classify", "type-m"])  # missing --p
    assert info.value.code == 2


def test_readme_commands_golden(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```(\w*)\n(.*?)```", README.read_text(), re.S)
    commands = [line for lang, body in blocks if lang == "sh"
                for line in body.splitlines() if line.startswith("hkannuli ")]
    graph = next(body for lang, body in blocks if lang == "" and "\nnode " in body)
    assert commands == list(README_DIGESTS)
    (tmp_path / "my.graph").write_text(graph)
    monkeypatch.chdir(tmp_path)
    for line, digests in README_DIGESTS.items():
        argv = [arg for arg in shlex.split(line)[1:] if arg != "--json"]
        for variant, digest in zip((argv, argv[:2] + ["--json"] + argv[2:]), digests):
            code, out, _ = invoke(capsys, *variant)
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), variant


@pytest.mark.parametrize("text, subject", [
    ("node x ifibered\nnode s seifert\nedge a x s label=3-3i\nedge a x s label=3-3i\n",
     "duplicate edge a"),
    ("node x ifibered\nnode x ifibered\n", "duplicate node x"),
], ids=["edge", "node"])
def test_jsj_validate_duplicate_ids(tmp_path, capsys, text, subject):
    # reported as a malformed file before any count of central nodes
    path = tmp_path / "dup.graph"
    path.write_text(text)
    code, out, _ = invoke(capsys, "jsj", "validate", str(path), "--json")
    assert code == 1
    report = json.loads(out)
    violations = report["result"]["violations"]
    assert [(v["rule"], v["subject"]) for v in violations] == [
        ("well-formed-graph", subject)]
    assert report["warnings"] == []


def test_jsj_validate_repeated_attribute(tmp_path, capsys):
    path = tmp_path / "repeated.graph"
    path.write_text("node x ifibered\nnode s seifert\nedge a x s label=3-3i label=2-1\n")
    code, out, err = invoke(capsys, "jsj", "validate", str(path))
    assert (code, out) == (1, "")
    assert err == "error: line 3: repeated edge attribute 'label'\n"
