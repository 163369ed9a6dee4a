"""The long CLI outputs, written from their structure, against the
one-object-per-entry rendering they replace: the same bytes."""

from __future__ import annotations

import json
import random

import pytest

from conftest import crossing_duals, sample_typek_params, valid_slopes
from hkannuli import arcs, classify, cli
from hkannuli.cli import run


@pytest.fixture(autouse=True, params=[2, cli._BATCH], ids=lambda size: f"batch{size}")
def batch(request, monkeypatch):
    """Every test at the writer's batch size and at 2, so that runs and
    spans cross batch boundaries on small inputs too."""
    monkeypatch.setattr(cli, "_BATCH", request.param)


def dumps(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def reference_census_payload(report: classify.CensusReport) -> dict:
    """The --json census with one dict per n in ``per_n``."""
    params = report.params
    return {
        "params": {"p": params.p, "q": params.q, "delta": params.delta, "rho": params.rho,
                   "beta": params.beta, "lambda": params.lam, "mu": params.mu},
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


def reference_arcs(rho: int, beta: int, as_json: bool) -> str:
    """`arcs crossings` from the expanded tuples: one object per crossing."""
    seq, ext = arcs.reference_crossings(rho, beta)
    duals = crossing_duals(rho, beta)
    kappa = [i + 1 for i, dual in enumerate(duals) if dual != "s0p"]
    assert tuple(kappa) == ext.kappa
    zetas = list(ext.zetas())
    if as_json:
        return dumps({"command": "arcs crossings", "inputs": {"rho": rho, "beta": beta},
                      "result": {"A": list(seq.entries), "A_hat": list(ext.entries),
                                 "kappa": kappa, "zeta": zetas, "duals": list(duals),
                                 "sigma": ext.sigma},
                      "warnings": []})
    return (f"A      = {list(seq.entries)}\nA-hat  = {list(ext.entries)}\n"
            f"kappa  = {kappa}\nzeta   = {zetas}\n")


def spans(window: tuple[int, ...]) -> list[int]:
    """Span 1 and 2, each window n at +-span, and one on either side of it."""
    edges = {abs(n) + step for n in window for step in (-1, 0, 1)}
    return sorted({1, 2} | {s for s in edges if s > 0})


def families() -> list:
    rng = random.Random(13)
    beta_ranges = [(-5, -1)] * 8 + [(0, 0)] * 8 + [(1, 5)] * 8
    return [classify.FIVE_TWO_PARAMS] + [sample_typek_params(rng, r) for r in beta_ranges]


def family_argv(params) -> list[str]:
    return ["--p", str(params.p), "--q", str(params.q), "--delta", str(params.delta),
            "--rho", str(params.rho), "--beta", str(params.beta),
            "--lambda", str(params.lam), "--mu", str(params.mu)]


def test_census_families_cover_the_cases():
    reports = [classify.typeK_census(params, 10) for params in families()]
    assert {(r.params.beta > 0) - (r.params.beta < 0) for r in reports} == {-1, 0, 1}
    witnessed = [r for r in reports if r.params.beta == 0 and len(r.inconclusive) == 4]
    assert witnessed and all(e.outcome.witness is not None
                             for r in witnessed for e in r.window_entries)


@pytest.mark.parametrize("params", families(), ids=lambda p: f"beta{p.beta}-lam{p.lam}")
def test_typek_json_matches_reference(capsys, params):
    for span in spans(classify.non_type41_window(params)):
        assert run(["classify", "type-k", *family_argv(params), "--range", str(span),
                    "--json"]) == 0
        out = capsys.readouterr().out
        report = classify.typeK_census(params, span)
        inputs = {"p": params.p, "q": params.q, "delta": params.delta, "rho": params.rho,
                  "beta": params.beta, "lambda": params.lam, "mu": params.mu, "range": span}
        assert out == dumps({"command": "classify type-k", "inputs": inputs,
                             "result": reference_census_payload(report),
                             "warnings": []}), span


def test_five_two_json_matches_reference(capsys):
    known = {str(n): t.value for n, t in sorted(classify.FIVE_TWO_KNOWN_TYPES.items())}
    for span in spans(classify.non_type41_window(classify.FIVE_TWO_PARAMS)) + [100]:
        assert run(["example", "five-two", "--range", str(span), "--json"]) == 0
        out = capsys.readouterr().out
        report = classify.five_two_report(span)
        result = reference_census_payload(report) | {
            "known_types": known, "bound_attained": report.total_non_certified == 5}
        assert out == dumps({"command": "example five-two", "inputs": {"range": span},
                             "result": result, "warnings": []}), span


def test_arcs_crossings_matches_reference(capsys):
    pairs = valid_slopes(40, 8)
    assert (0, 0) in pairs and (0, -1) in pairs and len(pairs) == 552
    pairs += [(1, 4500), (2, -4500)]  # more runs than a batch of 4096
    parser = cli.build_parser()  # built once: `run` builds it per call
    for rho, beta in pairs:
        for as_json in (False, True):
            argv = ["arcs", "crossings", "--rho", str(rho), "--beta", str(beta)]
            assert cli._run(parser.parse_args(argv + ["--json"] * as_json)) == 0
            assert capsys.readouterr().out == reference_arcs(rho, beta, as_json), (rho, beta)
