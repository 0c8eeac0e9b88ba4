"""Acceptance gate: every promised quantitative check, one test each.

Each test prints the criterion's single-line verdict (run pytest with -s
or look at the failure message) and asserts it passed.  Tolerances and
configurations live in rankone.acceptance; nothing here may weaken them.
"""

import pytest

from rankone import acceptance, ballavg, cli, model
from rankone.errors import ConvergenceError, ValidationError


def _check(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_spherical_oracle():
    _check(acceptance.criterion_spherical_oracle)


def test_criterion_02_c_function():
    _check(acceptance.criterion_c_function)


def test_criterion_03_decay_certificates():
    _check(acceptance.criterion_decay_certificates)


def test_criterion_04_ball_volume():
    _check(acceptance.criterion_ball_volume)


def test_criterion_04_fails_on_volumes_off_by_1e_8(monkeypatch):
    # every m(B_t) scaled by 1 + 1e-8, well above the criterion's 1e-10
    kernel = ballavg._ball_volumes
    monkeypatch.setattr(ballavg, "_ball_volumes", lambda group, radii: kernel(group, radii) * (1.0 + 1e-8))
    result = acceptance.criterion_ball_volume()
    assert not result.passed, result.line()
    assert " FAIL " in result.line()


def test_criterion_05_psi_asymptotics():
    _check(acceptance.criterion_psi_asymptotics)


def test_criterion_06_shell_lipschitz():
    _check(acceptance.criterion_shell_lipschitz)


def test_criterion_07_mean_envelope():
    _check(acceptance.criterion_mean_envelope)


def test_criterion_08_direction():
    _check(acceptance.criterion_direction)


def test_criterion_09_grid_summability():
    _check(acceptance.criterion_grid_summability)


def test_criterion_09_fails_on_a_closed_form_off_by_1e_10(monkeypatch):
    # the enumeration gap, about 1e-10, is above the criterion's 1e-12
    closed = model._interval_sum_closed
    monkeypatch.setattr(model, "_interval_sum_closed", lambda delta, m: closed(delta, m) * (1.0 + 1e-10))
    result = acceptance.criterion_grid_summability()
    assert not result.passed, result.line()
    assert " FAIL " in result.line()


def test_criterion_10_mc_ergodic():
    result = _check(acceptance.criterion_mc_ergodic)
    assert result.seconds < 120.0


def test_criterion_11_mc_decay_scan():
    _check(acceptance.criterion_mc_decay_scan)


def test_suite_is_complete():
    # structural only: the criteria themselves run in the tests above,
    # and `rankone verify` exercises run_all end to end
    assert len(acceptance.ALL_CRITERIA) == 11
    names = [fn.__name__ for fn in acceptance.ALL_CRITERIA]
    assert len(set(names)) == 11
    assert all(name.startswith("criterion_") for name in names)


@pytest.mark.parametrize("error", [ValidationError, ConvergenceError])
def test_raising_criterion_fails_and_the_rest_run(error, monkeypatch, capsys):
    # criterion 02 raises; verify still prints every line and the summary,
    # and exits 1.  The others are stubbed to keep the test fast.
    def stub(number):
        return lambda: acceptance.CriterionResult(number, f"stub {number}", True, "ok", 0.0)

    def criterion_c_function():
        raise error("c(s) did not settle")

    criteria = [stub(number) for number in range(1, 12)]
    criteria[1] = criterion_c_function
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", criteria)
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12 and lines[-1] == "10/11 criteria passed"
    assert lines[1].startswith(f"criterion 02 c function: FAIL ({error.__name__}: c(s) did not settle; ")
    assert all(" PASS " in line for line in lines[:1] + lines[2:11])
