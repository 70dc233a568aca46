import numpy as np
import pytest
from scipy import optimize

from norm_oracle import SimplexError, solve_box_lp


def scipy_value(c, A, b, lower, upper):
    res = optimize.linprog(
        -np.asarray(c, float),
        A_ub=A,
        b_ub=b,
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    assert res.success
    return -res.fun


def test_tiny_known_optimum():
    res = solve_box_lp(
        c=[1.0, 1.0],
        A=[[1.0, 0.0], [0.0, 1.0]],
        b=[1.0, 2.0],
        lower=[0.0, 0.0],
        upper=[3.0, 3.0],
    )
    assert res.objective == pytest.approx(3.0)
    assert res.x == pytest.approx([1.0, 2.0])


def test_box_only_program():
    res = solve_box_lp(c=[2.0, -1.0], A=None, b=[], lower=[-1.0, -2.0], upper=[4.0, 5.0])
    assert res.x == pytest.approx([4.0, -2.0])
    assert res.objective == pytest.approx(10.0)


def test_constraint_beats_bound():
    res = solve_box_lp(c=[1.0], A=[[1.0]], b=[0.5], lower=[0.0], upper=[2.0])
    assert res.objective == pytest.approx(0.5)


def test_bound_flip_only():
    # the row never binds; both variables flip to their profitable bound
    res = solve_box_lp(
        c=[1.0, 1.0], A=[[1.0, 1.0]], b=[10.0], lower=[0.0, 0.0], upper=[1.0, 2.0]
    )
    assert res.objective == pytest.approx(3.0)


def test_unbounded_detected():
    with pytest.raises(SimplexError):
        solve_box_lp(c=[1.0], A=[[-1.0]], b=[0.0], lower=[0.0], upper=[np.inf])


def test_infeasible_lower_start_rejected():
    with pytest.raises(SimplexError):
        solve_box_lp(c=[1.0], A=[[1.0]], b=[-1.0], lower=[0.0], upper=[2.0])


def test_beale_cycling_instance_terminates():
    # the classical degenerate program that cycles under naive pricing
    c = [0.75, -150.0, 0.02, -6.0]
    A = [
        [0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b = [0.0, 0.0, 1.0]
    res = solve_box_lp(c, A, b, lower=[0.0] * 4, upper=[np.inf] * 4)
    assert res.objective == pytest.approx(0.05)


def test_warm_start_matches_cold(
):
    rng = np.random.default_rng(0)
    c = rng.normal(size=6)
    A = rng.normal(size=(8, 6))
    lower = -rng.uniform(0.5, 2.0, size=6)
    upper = rng.uniform(0.5, 2.0, size=6)
    b = A @ lower + rng.uniform(0.1, 3.0, size=8)
    cold = solve_box_lp(c, A, b, lower, upper)
    warm = solve_box_lp(c, A, b, lower, upper, start_at_upper=c > 0)
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


@pytest.mark.parametrize("seed", range(25))
def test_random_programs_match_reference_solver(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, 12))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    lower = -rng.uniform(0.2, 2.0, size=n)
    upper = rng.uniform(0.2, 2.0, size=n)
    b = A @ lower + rng.uniform(0.05, 4.0, size=m)  # all-lower start feasible
    res = solve_box_lp(c, A, b, lower, upper)
    assert res.objective == pytest.approx(scipy_value(c, A, b, lower, upper), abs=1e-8)
    # returned point is feasible
    assert np.all(A @ res.x <= b + 1e-9)
    assert np.all(res.x >= lower - 1e-12) and np.all(res.x <= upper + 1e-12)
