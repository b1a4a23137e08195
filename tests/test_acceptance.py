"""Acceptance gate: every criterion at its stated tolerance, one per test.

Each test prints the same pass/fail line the selftest subcommand emits, so a
verbose pytest run doubles as the acceptance report.  Criteria with a wall
clock bound fold it into result.ok inside run_criterion.
"""

import pytest

from hkr import acceptance


def report(result):
    status = "PASS" if result.ok else "FAIL"
    boundtxt = f", bound {result.bound:.0f}s" if result.bound else ""
    print(
        f"criterion {result.number:2d} [{result.name}]: {status} - "
        f"{result.detail} ({result.seconds:.1f}s{boundtxt})"
    )


# each criterion's detail, pinned: a criterion that silently checks fewer
# cases (or other ones) changes its counts here
DETAILS = {
    1: "61 cyclic cases",
    2: "6 cases, (2,2,2) -> 17 on both routes",
    3: "(2,2,2) -> 7; 136 order-p cases against two oracles",
    4: "12 laws validated at D=16, 15 angle products, 12 coprimality certificates, "
       "15 Weierstrass degrees",
    5: "5 vandermonde units, 18 localizations with Eisenstein certificates, 11 fixed dimensions",
    6: "495 (group, prime) pairs, three-way agreement",
    7: "4455 Adams comparisons; swap-trace oracles on Sym(3) and Q8",
    8: "348 (group, prime, level) cases",
    9: "25 p-groups: 142 censuses, 71 iterated-fix checks, 3208 GL compositions, "
       "50 loop checks",
    10: "316 groups, rows and columns exact",
}


@pytest.mark.parametrize(
    "number, detail",
    [pytest.param(num, DETAILS[num], id=str(num)) for num, _, _ in acceptance.CRITERIA],
)
def test_criterion(number, detail, capsys):
    result = acceptance.run_criterion(number)
    with capsys.disabled():
        report(result)
    assert result.ok, result.detail
    assert result.detail == detail


def test_criterion_6_fails_when_the_orbit_route_loses_a_class(monkeypatch):
    real = acceptance.tuple_classes

    def lossy(G, p, n):
        classes = real(G, p, n)
        return classes[1:] if G.name == "Cyc(12)" else classes

    monkeypatch.setattr(acceptance, "tuple_classes", lossy)
    ok, detail = acceptance.criterion_6()
    assert not ok
    assert detail.startswith("Cyc(12) p=2:")


def test_criterion_4_validates_every_law_it_counts(monkeypatch):
    from hkr import fgl
    validated, validate = [], fgl._validate_law
    monkeypatch.setattr(fgl, "_validate_law", lambda F, name: (validated.append(name), validate(F, name)))
    fgl._bivariate.cache_clear()  # a law built by an earlier test would skip validation
    ok, detail = acceptance.criterion_4()
    assert ok, detail
    assert len(validated) == len(set(validated)) == 12
    assert detail.startswith(f"{len(validated)} laws validated at D=16")
