"""The four benchmark workloads.

Each workload turns a seed into an endless stream of rounds, lists of
operations of fixed composition: the seed picks the values, never the mix.
``census``, ``words-long`` and ``cli`` repeat one seeded round in a new
order each time; ``words-short`` cuts each shuffle of all its classes into
rounds.  An operation is called through the program's module attributes,
so a tracer that patches those attributes sees it.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has finished and been checked.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable, Iterator, Optional

import oracle

from hkannuli import boundary, classify, cli, freegroup
from hkannuli.freegroup import Word

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_work")
GRAPH_DIR = WORK_DIR / "graphs"
DIGEST_FILE = BENCH_DIR / "cli_digests.json"


@dataclass
class Op:
    """One closed-loop operation: ``run()`` is timed, ``check(result)`` is
    not.  ``inputs`` describes what the program receives and ``scale`` tags
    the exponent scale of a words-long operation."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    inputs: tuple = ()
    scale: int = 0


# -- census -------------------------------------------------------------------------

CENSUS_SPAN = 800
CENSUS_FAMILIES_PER_BETA = 8
CENSUS_BETAS = range(-5, 6)
FIVE_TWO = dict(p=2, q=1, delta=0, rho=0, beta=0, lam=1, mu=0)


def sample_family(rng: random.Random, beta: int) -> dict:
    """A valid type-K tuple with the given beta inside the acceptance
    sampler's bounds: q <= 10, 2 <= |p| <= 20, rho <= 10, |lambda|, |mu| <= 10."""
    while True:
        q = rng.randint(1, 10)
        p = rng.choice([p for p in range(-20, 21) if abs(p) >= 2 and gcd(p, q) == 1])
        delta = (-pow(p, -1, q)) % q if q > 1 else 0
        rho = rng.choice([r for r in range(11) if oracle.slope_is_valid(r, beta)])
        lam = rng.randint(-10, 10)
        if beta == 0:
            mu = lam + rng.choice((-1, 0, 1))
        elif beta == -1:
            mu = lam - 4 + rng.choice((-1, 0, 1))
        else:
            mu = rng.randint(-10, 10)
        if abs(mu) <= 10:
            return dict(p=p, q=q, delta=delta, rho=rho, beta=beta, lam=lam, mu=mu)


def check_census(family: dict, span: int, report) -> bool:
    """Window, bound and closed-form checks, all computed here."""
    ns = [e.n for e in report.entries]
    inconclusive = report.inconclusive
    window = oracle.exclusion_window(**family)
    ok = (ns == list(range(-span, span + 1))
          and tuple(report.window) == window
          and set(inconclusive) <= set(window)
          and len(inconclusive) <= 4
          and report.certified_count == len(ns) - len(inconclusive)
          and report.total_non_certified == len(inconclusive) + 1)
    if family["beta"] in (0, -1):
        q, delta, lam, mu = family["q"], family["delta"], family["lam"], family["mu"]
        if family["beta"] == -1:
            lam, mu = lam - 2, mu + 2
        ok = ok and tuple(inconclusive) == oracle.flat_inconclusive(q, delta, lam, mu, span)
    if family == FIVE_TWO:
        ok = ok and tuple(inconclusive) == (-2, -1, 0, 1)
    return ok


def census_op(family: dict, span: int = CENSUS_SPAN) -> Op:
    params = boundary.validate_params(**family)
    return Op("typeK_census", lambda: classify.typeK_census(params, span),
              lambda report: check_census(family, span, report),
              (tuple(family.items()), span))


def census_rounds(seed: int) -> Iterator[list]:
    rng = random.Random(seed)
    families = [sample_family(rng, beta) for beta in CENSUS_BETAS
                for _ in range(CENSUS_FAMILIES_PER_BETA)] + [FIVE_TWO]
    ops = [census_op(f) for f in families]
    while True:
        rng.shuffle(ops)
        yield list(ops)


# -- words-long ----------------------------------------------------------------------

# Cyclic letter-length targets at exponent scale x1; x10 multiplies the
# large exponent, and so the letter length, by ten with the same blocks.
# The doubled top target keeps the slowest tenth of operations inside one
# tier, so the tail percentile does not sit on a step between tiers.
LONG_TARGETS = (250, 500, 1000, 1000)
LONG_SCALES = (1, 10)
# Chain structures and base words come from one fixed catalogue, so every
# seed measures the same mix of descents; the seed sets the exponents,
# rotations, conjugators and powers.  Descent cost differs by a factor of
# three between chains of equal length, which would otherwise swamp the
# run-to-run spread.
SHAPE_SEED = 1729
# Not primitive and not a proper power (checked against the orbit table
# in the tests), so their images are neither.  The commutator is left out:
# every automorphism maps it to a conjugate of itself or its inverse, so
# its images stay four letters long cyclically.
NONPRIMITIVE = ("u^2 v^2", "u^2 v^3", "u^3 v^2 u v", "u v u v^-1")
# Same abelianisation, different cyclic words.
NONCONJUGATE = (("u v^2 u^2 v", "u^2 v^2 u v"), ("u^3 v u v^2", "u v u^3 v^2"))
U, V = (("u", 1),), (("v", 1),)


def transvection(x: str, side: str, e: int) -> dict:
    """x -> x y^e (side "r") or y^e x (side "l"), fixing the other letter y."""
    y = "v" if x == "u" else "u"
    image = oracle.mul(((x, 1),), ((y, e),)) if side == "r" else oracle.mul(((y, e),), ((x, 1),))
    return {x: image, y: ((y, 1),)}


@dataclass(frozen=True)
class Chain:
    """An automorphism: small transvections, then one large one
    v -> v u^n or u^n v.  The large move comes last so the block count of
    an image does not grow with n, and it multiplies u so that the greedy
    descent stays linear in n (see NOTES.md for the quadratic orientation)."""

    small: tuple
    side: str

    def image(self, word: tuple, n: int) -> tuple:
        for x, side, e in self.small:
            word = oracle.substitute(word, transvection(x, side, e))
        return oracle.substitute(word, transvection("v", self.side, n))

    def exponent_for(self, word: tuple, letters: int) -> Optional[int]:
        """The large exponent n that gives the image a cyclic core of about
        ``letters`` letters, or None when the core barely depends on n."""
        l1 = oracle.letter_length(oracle.cyclic_core(self.image(word, 1000))[0])
        l2 = oracle.letter_length(oracle.cyclic_core(self.image(word, 2000))[0])
        slope = (l2 - l1) / 1000
        if not 1 <= slope <= 4:
            return None
        n = round((letters - (l1 - 1000 * slope)) / slope)
        return n if n >= 50 else None


class Shapes:
    """Chains from the fixed catalogue, exponents jittered by the seed."""

    def __init__(self, seed: int):
        self.catalogue = random.Random(SHAPE_SEED)
        self.rng = random.Random(seed)

    def place(self, word: tuple, letters: int):
        """A chain and exponent whose image of ``word`` has about ``letters``
        letters in its cyclic core."""
        pick = self.catalogue
        for _ in range(10_000):
            chain = Chain(tuple((pick.choice("uv"), pick.choice("lr"),
                                 pick.choice((1, -1, 2, -2))) for _ in range(2)),
                          pick.choice("lr"))
            n = chain.exponent_for(word, letters)
            if n is not None:
                return chain, max(50, round(n * self.rng.uniform(0.9, 1.1)))
        raise ValueError(f"no catalogue chain gives {letters} letters")

    def primitive(self, letters: int):
        """A basis letter, chain and exponent whose primitive image has a
        cyclic core of two or more blocks."""
        while True:
            g = self.catalogue.choice((U, V))
            chain, n = self.place(g, letters)
            if len(oracle.cyclic_core(chain.image(g, n))[0]) >= 2:
                return g, chain, n

    def base(self, choices):
        return self.catalogue.choice(choices)


def _is(expected):
    return lambda result: result is expected


def long_ops(shapes: Shapes, letters: int) -> list:
    """The seven words-long queries at one letter-length target, each at
    scale x1 and x10 with the same chain and blocks."""
    rng = shapes.rng
    ops = []

    def add(kind, build, fn, check):
        for scale in LONG_SCALES:
            args = build(scale)
            ops.append(Op(kind, lambda f=fn, a=args: getattr(freegroup, f)(*a),
                          check, args, scale))

    g, chain, n = shapes.primitive(letters)
    add("is_primitive:true", lambda s: (Word(chain.image(g, n * s)),),
        "is_primitive", _is(True))

    base = oracle.parse(shapes.base(NONPRIMITIVE))
    chain_np, n_np = shapes.place(base, letters)
    add("is_primitive:false", lambda s: (Word(chain_np.image(base, n_np * s)),),
        "is_primitive", _is(False))
    add("is_power_of_primitive:false", lambda s: (Word(chain_np.image(base, n_np * s)),),
        "is_power_of_primitive", _is(False))

    k = rng.choice((2, 3))
    g2, chain2, n2 = shapes.primitive(letters)
    add("is_power_of_primitive:true",
        lambda s: (Word(oracle.power(chain2.image(g2, n2 * s), k)),),
        "is_power_of_primitive", _is(True))

    x = oracle.parse(shapes.base(NONPRIMITIVE))
    chain_c, n_c = shapes.place(x, letters)
    conj = ((rng.choice("uv"), rng.choice((1, -1))),)

    def conjugate_pair(s):
        word = chain_c.image(x, n_c * s)
        core, _ = oracle.cyclic_core(word)
        block = rng.randrange(len(core))
        rotated = oracle.rotate(core, block, rng.randrange(abs(core[block][1])))
        return Word(word), Word(oracle.mul(conj, rotated, oracle.inverse(conj)))

    add("are_conjugate:true", conjugate_pair, "are_conjugate", _is(True))

    x1, x2 = (oracle.parse(t) for t in shapes.base(NONCONJUGATE))
    if rng.random() < 0.5:
        x1, x2 = x2, x1
    chain_f, n_f = shapes.place(x1, letters)
    add("are_conjugate:false",
        lambda s: (Word(chain_f.image(x1, n_f * s)), Word(chain_f.image(x2, n_f * s))),
        "are_conjugate", _is(False))

    k_root = rng.choice((2, 3, 4))
    g3, chain3, n3 = shapes.primitive(letters)
    for scale in LONG_SCALES:
        r, _ = oracle.cyclic_core(chain3.image(g3, n3 * scale))
        w = Word(oracle.power(r, k_root))
        ops.append(Op("root", lambda w=w: freegroup.root(w),
                      lambda res, r=r: res[0].blocks == r and res[1] == k_root, (w,), scale))
    return ops


def words_long_rounds(seed: int) -> Iterator[list]:
    """One seeded round, reshuffled each time: the run measures the same
    words over and over, so a round's rate tracks the machine, not the draw."""
    shapes = Shapes(seed)
    ops = [op for letters in LONG_TARGETS for op in long_ops(shapes, letters)]
    while True:
        shapes.rng.shuffle(ops)
        yield list(ops)


# -- words-short -------------------------------------------------------------------

SHORT_MAX_LEN = 10
SHORT_ROUND = 512


def short_op(codes: tuple, rng: random.Random) -> Op:
    """Certificate, power-of-primitive and conjugacy against a rotated
    conjugate, for one cyclic class; the answers come from the orbit table."""
    w = Word(oracle.blocks_of(codes))
    shift = rng.randrange(len(codes))
    letter = rng.randrange(4)
    rotated = (letter,) + codes[shift:] + codes[:shift] + (letter ^ 1,)
    other = Word(oracle.blocks_of(rotated))
    power = oracle.is_power_of_primitive(codes, SHORT_MAX_LEN)

    def run():
        return (freegroup.cho_koda_criterion(w), freegroup.is_power_of_primitive(w),
                freegroup.are_conjugate(w, other))

    def check(result):
        certified, is_power, conjugate = result
        return is_power is power and conjugate is True and not (certified and power)

    return Op("short_class", run, check, (w, other))


def words_short_rounds(seed: int) -> Iterator[list]:
    rng = random.Random(seed)
    ops = [short_op(codes, rng) for codes in oracle.cyclic_classes(SHORT_MAX_LEN)]
    while True:
        rng.shuffle(ops)
        for start in range(0, len(ops) - SHORT_ROUND + 1, SHORT_ROUND):
            yield ops[start:start + SHORT_ROUND]


# -- cli -----------------------------------------------------------------------------

POOL_SEED = 20240404
# Invocations of each stratum in one round.  Heavy strata sit in narrow
# bands of rho and --range so every round costs about the same.  The light
# calls keep a 25 s run above 100 calls, so the tail stays p90, and the six
# heavy calls (a sixth of a round) put p90 in the middle of the heavy tier.
CLI_ROUND = {"light": 20, "reject-1": 2, "reject-2": 1, "jsj": 2, "five-two": 1,
             "arcs-small": 1, "arcs-large": 3, "typek-small": 1, "typek-large": 3}
CLI_POOL_SIZE = {"light": 56, "reject-1": 8, "reject-2": 4, "jsj": 8, "five-two": 4,
                 "arcs-small": 6, "arcs-large": 8, "typek-small": 6, "typek-large": 8}

VALID_GRAPHS = (
    "node x simple\n",
    "node x ifibered\nedge a x x\n",
    "node x ifibered\nedge a x x\nedge b x x\n",
    "node x ifibered\nnode s seifert\nedge a x s label=3-3i slope=prod:3/2\n",
    "# two pieces\nnode x simple\nnode s seifert\nedge a x s label=3-2i\n",
    "node x ifibered\nnode s seifert\nedge a x s label=3-3i slope=prod:5/3\n"
    "edge b x s label=3-3i slope=prod:5/3\n",
)
VIOLATING_GRAPHS = (
    "node x ifibered\nedge a x x label=2-1\n",
    "node x simple\nnode s seifert\nedge a x s label=4-1\n",
    "node x ifibered\nnode y simple\n",
    "node x ifibered\nedge a x x\nedge b x x\nedge c x x\nedge d x x\n",
    "node x ifibered\nnode s seifert\nedge a x s label=3-3ii slope=prod:3/2\n",
    "node x ifibered\nedge a x y\n",
)


@dataclass(frozen=True)
class Invocation:
    stratum: str
    argv: tuple
    exit_code: int
    check: str = ""          # name of an extra output check, see check_output
    data: tuple = ()         # what that check needs


def _json_flag(rng):
    return ("--json",) if rng.random() < 0.5 else ()


def _family_args(f: dict) -> tuple:
    return ("--p", str(f["p"]), "--q", str(f["q"]), "--delta", str(f["delta"]),
            "--rho", str(f["rho"]), "--beta", str(f["beta"]),
            "--lambda", str(f["lam"]), "--mu", str(f["mu"]))


def _short_word(rng) -> tuple:
    while True:
        codes = [rng.randrange(4)]
        for _ in range(rng.randint(0, 7)):
            codes.append(rng.choice([c for c in range(4) if c != codes[-1] ^ 1]))
        core, _ = oracle.cyclic_core(oracle.blocks_of(codes))
        if core:
            return core


def _light(rng) -> Invocation:
    kind = rng.randrange(8)
    if kind == 0:
        twists = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 5)))
        convention = rng.choice(("literal", "mirrored"))
        argv = (("tangle", "eval", "--convention", convention) + _json_flag(rng)
                + ("--",) + tuple(map(str, twists)))
        return Invocation("light", argv, 0, "tangle", (twists, convention))
    if kind == 1:
        f = sample_family(rng, rng.randint(-5, 5))
        return Invocation("light", ("boundary", "word") + _family_args(f)
                          + ("--n", str(rng.randint(-50, 50))) + _json_flag(rng), 0)
    if kind == 2:
        return Invocation("light", ("classify", "type-m", "--p", str(rng.randint(-20, 20)))
                          + _json_flag(rng), 0)
    if kind == 3:
        q = rng.randint(1, 9)
        p = rng.choice([p for p in range(-20, 21) if abs(p) >= 2 and gcd(p, q) == 1])
        fact = ("--cv-trivial", rng.choice(("true", "false"))) if q == 1 else ()
        return Invocation("light", ("classify", "type-s", "--p", str(p), "--q", str(q))
                          + fact + _json_flag(rng), 0)
    if kind == 4:
        lmnp = tuple(str(rng.randint(-6, 6)) for _ in range(4))
        return Invocation("light", ("classify", "em", "--l", lmnp[0], "--m", lmnp[1],
                                    "--n", lmnp[2], "--p", lmnp[3],
                                    "--side", rng.choice(("plus", "minus"))) + _json_flag(rng), 0)
    if kind in (5, 6):
        op = "primitive" if kind == 5 else "power"
        w = _short_word(rng)
        codes = oracle.codes_of(w)
        answer = (oracle.is_primitive(codes, SHORT_MAX_LEN) if op == "primitive"
                  else oracle.is_power_of_primitive(codes, SHORT_MAX_LEN))
        return Invocation("light", ("word", op, oracle.text(w)) + _json_flag(rng), 0,
                          "bool", (answer,))
    a, b = _short_word(rng), _short_word(rng)
    if rng.random() < 0.5:
        codes = oracle.codes_of(a)
        shift = rng.randrange(len(codes))
        b = oracle.blocks_of(codes[shift:] + codes[:shift])
    answer = (oracle.canonical_rotation(oracle.codes_of(a))
              == oracle.canonical_rotation(oracle.codes_of(b)))
    return Invocation("light", ("word", "conjugate", oracle.text(a), oracle.text(b))
                      + _json_flag(rng), 0, "bool", (answer,))


def _reject_1(rng) -> Invocation:
    kind = rng.randrange(5)
    if kind == 0:
        f = dict(sample_family(rng, 0), p=rng.choice((-1, 0, 1)))
        argv = ("boundary", "word") + _family_args(f) + ("--n", "0")
    elif kind == 1:
        beta = rng.choice((1, 2, 4, 7))       # 2*beta + 1 in {3, 5, 9, 15}
        argv = ("arcs", "crossings", "--rho", str(abs(2 * beta + 1) * rng.randint(1, 50)),
                "--beta", str(beta))
    elif kind == 2:
        argv = ("word", "primitive", rng.choice(("zebra", "u^x", "u v w")))
    elif kind == 3:
        argv = ("classify", "type-s", "--p", str(rng.choice((2, 3, -5))), "--q", "1")
    else:
        f = dict(sample_family(rng, 2), q=0)
        argv = ("classify", "type-k") + _family_args(f) + ("--range", "10")
    return Invocation("reject-1", argv + _json_flag(rng), 1)


def _reject_2(rng) -> Invocation:
    argv = rng.choice((
        ("classify", "type-m"),
        ("tangle", "eval", "--convention", "upside", "--", "1", "2"),
        ("arcs", "crossings", "--rho", "two", "--beta", "0"),
        ("example", "six-three"),
    ))
    return Invocation("reject-2", argv, 2)


def _jsj(rng, index: int) -> Invocation:
    valid = index % 2 == 0
    path = GRAPH_DIR / f"{'valid' if valid else 'violating'}-{index:02d}.graph"
    return Invocation("jsj", ("jsj", "validate", path.as_posix()) + _json_flag(rng),
                      0 if valid else 1)


def graph_files(pool: list) -> dict:
    """Contents of the graph files the pool's jsj invocations read."""
    rng = random.Random(POOL_SEED)
    files = {}
    for inv in pool:
        if inv.stratum == "jsj":
            texts = VALID_GRAPHS if inv.exit_code == 0 else VIOLATING_GRAPHS
            files[inv.argv[2]] = rng.choice(texts)
    return files


def _arcs(rng, stratum: str) -> Invocation:
    low, high = (1_000, 10_000) if stratum == "arcs-small" else (90_000, 100_000)
    while True:
        beta = rng.randint(-5, 5)
        rho = rng.randint(low, high)
        if oracle.slope_is_valid(rho, beta):
            break
    return Invocation(stratum, ("arcs", "crossings", "--rho", str(rho), "--beta", str(beta))
                      + _json_flag(rng), 0, "arcs", (rho, beta))


def _typek(rng, stratum: str) -> Invocation:
    low, high = (100, 1_000) if stratum == "typek-small" else (9_000, 10_000)
    f = sample_family(rng, rng.randint(-5, 5))
    span = rng.randint(low, high)
    return Invocation(stratum, ("classify", "type-k") + _family_args(f)
                      + ("--range", str(span), "--json"), 0, "census",
                      (tuple(sorted(f.items())), span))


def _five_two(rng) -> Invocation:
    return Invocation("five-two", ("example", "five-two", "--range",
                                   str(rng.randint(50, 300))) + _json_flag(rng), 0, "five-two")


def cli_pool() -> list:
    """The fixed invocation pool; its stdout digests are recorded in
    cli_digests.json, and a seed only picks and orders invocations."""
    rng = random.Random(POOL_SEED)
    makers = {
        "light": lambda i: _light(rng),
        "reject-1": lambda i: _reject_1(rng),
        "reject-2": lambda i: _reject_2(rng),
        "jsj": lambda i: _jsj(rng, i),
        "five-two": lambda i: _five_two(rng),
        "arcs-small": lambda i: _arcs(rng, "arcs-small"),
        "arcs-large": lambda i: _arcs(rng, "arcs-large"),
        "typek-small": lambda i: _typek(rng, "typek-small"),
        "typek-large": lambda i: _typek(rng, "typek-large"),
    }
    return [makers[s](i) for s, count in CLI_POOL_SIZE.items() for i in range(count)]


def key(argv) -> str:
    return json.dumps(list(argv))


def check_output(inv: Invocation, code: int, out: bytes, digests: dict) -> bool:
    """Exit code, recorded digest, parseable JSON and the answers this
    benchmark computes itself."""
    if code != inv.exit_code or hashlib.sha256(out).hexdigest() != digests.get(key(inv.argv)):
        return False
    text = out.decode()
    payload = json.loads(text) if "--json" in inv.argv and text else None
    if inv.check == "tangle":
        num, den = oracle.continued_fraction(*inv.data)
        expected = "inf" if den == 0 else f"{num}/{den}"
        return (payload["result"]["fraction"] if payload else text.strip()) == expected
    if inv.check == "bool":
        value = payload["result"]["value"] if payload else text.strip() == "true"
        return value is inv.data[0]
    if inv.check == "arcs" and payload:
        rho, beta = inv.data
        result = payload["result"]
        return (len(result["A"]) == 2 * abs(beta)
                and len(result["A_hat"]) == result["sigma"] == 2 * abs(beta) + rho)
    if inv.check == "census":
        family, span = dict(inv.data[0]), inv.data[1]
        result = payload["result"]
        inconclusive = [e["n"] for e in result["per_n"] if e["verdict"] == "inconclusive"]
        window = list(oracle.exclusion_window(**family))
        return (result["window"] == window and len(result["per_n"]) == 2 * span + 1
                and set(inconclusive) <= set(window) and len(inconclusive) <= 4)
    if inv.check == "five-two":
        if payload:
            return payload["result"]["window"] == [-2, -1, 0, 1] and payload["result"]["bound_attained"]
        return "window: [-2, -1, 0, 1]" in text and "sharp bound attained: true" in text
    return True


def child_env(src: Path) -> dict:
    """The caller's environment with the sources on the path and bytecode
    caching on, as for an installed package."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, env: dict) -> tuple:
    # No timeout: with one, subprocess polls for the exit in steps of up
    # to 50 ms, which would quantise every latency.
    proc = subprocess.run([sys.executable, "-m", "hkannuli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, proc.stdout


def run_in_process(argv) -> tuple:
    """``cli.run`` with captured stdout; argparse usage errors exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode()


def write_graph_files(pool: list) -> None:
    GRAPH_DIR.mkdir(parents=True, exist_ok=True)
    for path, text in graph_files(pool).items():
        Path(path).write_text(text)


def load_digests() -> dict:
    return json.loads(DIGEST_FILE.read_text())


def cli_op(inv: Invocation, digests: dict, env: Optional[dict]) -> Op:
    """A child process per call, or ``cli.run`` in-process when env is None."""
    if env is None:
        run = lambda: run_in_process(inv.argv)
    else:
        run = lambda: run_child(inv.argv, env)
    return Op(inv.stratum, run, lambda res: check_output(inv, res[0], res[1], digests),
              inv.argv)


def cli_rounds(seed: int, src: Optional[Path]) -> Iterator[list]:
    """One round of CLI_ROUND composition drawn from the pool by the seed,
    reshuffled each time; ``src`` set means child processes, None means
    in-process calls."""
    pool = cli_pool()
    write_graph_files(pool)
    digests = load_digests()
    env = child_env(src) if src is not None else None
    rng = random.Random(seed)
    ops = [cli_op(inv, digests, env) for stratum, count in CLI_ROUND.items()
           for inv in rng.sample([i for i in pool if i.stratum == stratum], count)]
    while True:
        rng.shuffle(ops)
        yield list(ops)


def record_digests(src: Path) -> dict:
    """Run every pool invocation once as a child and return its digest
    table; an unexpected exit code or failed check is an error."""
    pool = cli_pool()
    write_graph_files(pool)
    env = child_env(src)
    table = {}
    for inv in pool:
        code, out = run_child(inv.argv, env)
        table[key(inv.argv)] = hashlib.sha256(out).hexdigest()
        if not check_output(inv, code, out, table):
            raise RuntimeError(f"unexpected output for {inv.argv}: exit {code}")
    return table


WORKLOADS = {
    "census": lambda seed, src: census_rounds(seed),
    "words-long": lambda seed, src: words_long_rounds(seed),
    "words-short": lambda seed, src: words_short_rounds(seed),
    "cli": cli_rounds,
}
