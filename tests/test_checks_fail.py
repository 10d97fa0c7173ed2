"""Every asserted check can fail.

Each test moves one entry of one side of a check by 1, by patching the
call that computes that side, and requires the check to say so: the
report does not pass, its JSON entry reads ``"match": false`` and the
check ``"pass": false``, and the CLI exits 1.  An informational check
(theorem5 off Fano surfaces) that fails is reported the same way, but the
CLI still exits 0.
"""

import json

import pytest

import nesthilb.verify as verify
from nesthilb.cli import main
from nesthilb.toric import line_bundle, surface_hirzebruch, surface_p2

KEY = (1, 1)  # the moved entry


def moved(values, key):
    return {**values, key: values[key] + 1}


def move_theorem7_rhs(monkeypatch):
    real = verify.theorem7_rhs

    def rhs(S, M, nmax, seed=0):
        return moved(real(S, M, nmax, seed=seed), KEY)

    monkeypatch.setattr(verify, "theorem7_rhs", rhs)


def move_theorem5_product_side(monkeypatch):
    real = verify.integrate

    def integrate(S, n1, n2, spec, seed=0):
        res = real(S, n1, n2, spec, seed=seed)
        if spec.mode == "product" and (n1, n2) == KEY:
            res = res._replace(values=moved(res.values, KEY))
        return res

    monkeypatch.setattr(verify, "integrate", integrate)


def move_case2_hilbert_side(monkeypatch):
    real = verify.integrate_hilb

    def integrate_hilb(S, n, spec, seed=0):
        res = real(S, n, spec, seed=seed)
        return res._replace(values=moved(res.values, (1, 0)))

    monkeypatch.setattr(verify, "integrate_hilb", integrate_hilb)


CASES = {
    "theorem7": (move_theorem7_rhs, lambda S, M: verify.theorem7_check(S, M, 2), KEY),
    "theorem5": (move_theorem5_product_side, lambda S, M: verify.theorem5_check(S, M, *KEY), KEY),
    "case2": (move_case2_hilbert_side, lambda S, M: verify.case2_check(S, M, 2), (1, 0)),
}


def cli_json(capsys, surface, bundle, check):
    code = main(["--surface", surface, "--bundle", bundle, "--check", check, "--nmax", "2",
                 "--output", "json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("check", CASES)
def test_the_unpatched_check_passes(capsys, check):
    # the baseline the moved entry departs from
    S = surface_p2()
    _, run, _ = CASES[check]
    assert run(S, line_bundle(S, [0, 0, 1])).passed
    code, doc = cli_json(capsys, "p2", "0,0,1", check)
    assert code == 0 and doc["checks"][0]["pass"] is True


@pytest.mark.parametrize("check", CASES)
def test_one_moved_entry_fails_the_check(monkeypatch, capsys, check):
    move, run, key = CASES[check]
    move(monkeypatch)
    S = surface_p2()
    report = run(S, line_bundle(S, [0, 0, 1]))
    assert not report.passed
    assert [(n1, n2) for n1, n2, lhs, rhs in report.entries if lhs != rhs] == [key]

    code, doc = cli_json(capsys, "p2", "0,0,1", check)
    assert code == 1
    [result] = doc["checks"]
    assert result["name"] == check
    assert result["pass"] is False and result["informational"] is False
    assert doc["pass"] is False
    bad = [(e["n1"], e["n2"]) for e in result["entries"] if e["match"] is False]
    assert bad == [key]


def test_a_failing_informational_check_exits_0(monkeypatch, capsys):
    move_theorem5_product_side(monkeypatch)
    S = surface_hirzebruch(2)
    report = verify.theorem5_check(S, S.bundle("O"), *KEY)
    assert report.informational and not report.passed

    code, doc = cli_json(capsys, "fa:2", "O", "theorem5")
    assert code == 0
    [result] = doc["checks"]
    assert result["pass"] is False and result["informational"] is True
    assert doc["pass"] is True
    assert [(e["n1"], e["n2"]) for e in result["entries"] if e["match"] is False] == [KEY]
