"""Acceptance gate: every promised quantitative check, one test each.

Each criterion test runs its ALL_CRITERIA entry through run_criterion,
prints the single-line verdict (run pytest with -s or look at the
failure message) and asserts it passed.  Tolerances and configurations
live in rankone.acceptance; nothing here may weaken them.
"""

import pytest

from rankone import acceptance, ballavg, cli, model, surface
from rankone.errors import ConvergenceError, ValidationError

# What `rankone verify` numbers and names, line by line.
_GOLDEN = [
    (1, "spherical oracle"),
    (2, "c-function consistency"),
    (3, "decay certificates"),
    (4, "ball volume"),
    (5, "psi asymptotics"),
    (6, "shell Lipschitz bound"),
    (7, "mean decay envelope"),
    (8, "direction convergence"),
    (9, "grid summability"),
    (10, "MC ergodic limit"),
    (11, "MC decay scan"),
]


def _criterion_test(number, check):
    def test():
        result = acceptance.run_criterion(number)
        print(result.line())
        assert result.passed, result.line()

    test.__name__ = f"test_criterion_{number:02d}_{check.__name__.removeprefix('criterion_')}"
    return test


# One test body over the table, named test_criterion_NN_<check> per entry.
for _number, (_, _check, _) in enumerate(acceptance.ALL_CRITERIA, start=1):
    _test = _criterion_test(_number, _check)
    globals()[_test.__name__] = _test


def test_criterion_04_fails_on_volumes_off_by_1e_11(monkeypatch):
    # every m(B_t) scaled by 1 + 1e-11, ten times the criterion's 1e-12
    kernel = ballavg._ball_volumes
    monkeypatch.setattr(ballavg, "_ball_volumes", lambda group, radii: kernel(group, radii) * (1.0 + 1e-11))
    result = acceptance.run_criterion(4)
    assert not result.passed, result.line()
    assert " FAIL " in result.line()


def test_criterion_09_fails_on_a_closed_form_off_by_1e_10(monkeypatch):
    # the enumeration gap, about 1e-10, is above the criterion's 1e-12
    closed = model._interval_sum_closed
    monkeypatch.setattr(model, "_interval_sum_closed", lambda delta, m: closed(delta, m) * (1.0 + 1e-10))
    result = acceptance.run_criterion(9)
    assert not result.passed, result.line()
    assert " FAIL " in result.line()


@pytest.mark.parametrize(
    "mutant",
    [
        lambda radius: lambda t, u: 1.01 * radius(t, u),  # z = +5.69 at t = 1
        lambda radius: lambda t, u: u * t,  # tau uniform on [0, t]: |z| > 150
    ],
    ids=["tau-times-1.01", "tau-uniform"],
)
def test_criterion_10_fails_on_a_wrong_radial_law(mutant, monkeypatch):
    # the KS part is stubbed to pass, so the orbit-sum check alone rejects it
    monkeypatch.setattr(surface, "_so21_radius", mutant(surface._so21_radius))
    monkeypatch.setattr(acceptance, "ks_radial_test", lambda t, n, seed: surface.KSResult(t, n, 0.0, 1.0))
    result = acceptance.run_criterion(10)
    assert not result.passed, result.line()
    assert " FAIL (z vs orbit sum " in result.line()


def test_suite_is_complete():
    # structural only: the criteria themselves run in the tests above,
    # and `rankone verify` exercises run_all end to end
    assert [name for name, _, _ in acceptance.ALL_CRITERIA] == [name for _, name in _GOLDEN]
    checks = [check for _, check, _ in acceptance.ALL_CRITERIA]
    assert all(getattr(acceptance, check.__name__) is check for check in checks)
    assert len({check.__name__ for check in checks}) == 11
    assert all(check.__name__.startswith("criterion_") for check in checks)
    budgets = [budget for _, _, budget in acceptance.ALL_CRITERIA]
    assert budgets == [10.0] + [None] * 8 + [120.0, None]


def _stub_table(monkeypatch, checks=None):
    # the real names and budgets; each check a quick PASS unless `checks` maps its number
    table = [(name, (checks or {}).get(number, lambda: (True, "ok")), budget)
             for number, (name, _, budget) in enumerate(acceptance.ALL_CRITERIA, start=1)]
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", table)


def test_verify_numbers_and_names_every_line(monkeypatch, capsys):
    _stub_table(monkeypatch)
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "11/11 criteria passed"
    assert [line.partition(": ")[0] for line in lines[:-1]] == [
        f"criterion {number:02d} {name}" for number, name in _GOLDEN
    ]


def test_criterion_over_its_budget_fails(monkeypatch):
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [("stub", lambda: (True, "ok"), 0.0)])
    result = acceptance.run_criterion(1)
    assert not result.passed
    assert result.line().startswith("criterion 01 stub: FAIL (ok, over its 0s budget; ")


@pytest.mark.parametrize("error", [ValidationError, ConvergenceError])
def test_raising_criterion_fails_and_the_rest_run(error, monkeypatch, capsys):
    # criterion 02 raises; verify still prints every line and the summary,
    # and exits 1.  The others are stubbed to keep the test fast.
    def criterion_c_function():
        raise error("c(s) did not settle")

    _stub_table(monkeypatch, {2: criterion_c_function})
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12 and lines[-1] == "10/11 criteria passed"
    assert lines[1].startswith(f"criterion 02 c-function consistency: FAIL ({error.__name__}: c(s) did not settle; ")
    assert all(" PASS " in line for line in lines[:1] + lines[2:11])
