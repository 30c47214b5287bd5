import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpart.thresholds import (EXTERNAL, INTERNAL, ParamSet,
                                build_threshold_table, default_d_constant,
                                verify_series_bound)


def test_default_d_constant_values():
    assert default_d_constant(0.0, 1.0, INTERNAL) == 1000.0
    assert default_d_constant(0.0, 0.5, INTERNAL) == 4000.0
    # 1000 / (sqrt(0.25) * 0.25) with exact arithmetic
    assert default_d_constant(0.75, 0.5, EXTERNAL) == pytest.approx(8000.0, rel=1e-15)
    with pytest.raises(ValueError):
        default_d_constant(0.0, 0.0, INTERNAL)


def test_paramset_validation():
    ParamSet(0.0, 0.25, INTERNAL)
    with pytest.raises(ValueError):
        ParamSet(0.0, 0.26, INTERNAL)
    ParamSet(0.0, 0.26, INTERNAL, relaxed=True)
    with pytest.raises(ValueError):
        ParamSet(0.0, 0.11, EXTERNAL)
    ParamSet(0.0, 0.09, EXTERNAL)
    with pytest.raises(ValueError):
        ParamSet(1.0, 0.1, INTERNAL)
    with pytest.raises(ValueError):
        ParamSet(0.0, 0.1, INTERNAL, d_const=-1.0)
    with pytest.raises(ValueError):
        ParamSet(0.0, 0.1, INTERNAL, d_const=0.0)
    # d=0 is an algebra-check degenerate, allowed only relaxed
    ParamSet(0.0, 0.1, INTERNAL, d_const=0.0, relaxed=True)


@pytest.mark.parametrize("d", [float("nan"), float("inf"), float("-inf"),
                               np.float64("nan")])
@pytest.mark.parametrize("mode", [INTERNAL, EXTERNAL])
@pytest.mark.parametrize("relaxed", [False, True])
def test_paramset_refuses_a_non_finite_d_const(d, mode, relaxed):
    # NaN < 0 is False: a NaN constant used to pass and leave every vertex
    # inactive
    with pytest.raises(ValueError, match="^d_const must be finite, got "):
        ParamSet(0.0, 0.05, mode, d_const=d, relaxed=relaxed)


@pytest.mark.parametrize("eps", [1e-160, 1e-170, 1e-300, 5e-324])
@pytest.mark.parametrize("mode", [INTERNAL, EXTERNAL])
def test_paramset_refuses_an_eps_whose_default_d_is_not_finite(eps, mode):
    # 1000/eps^2 overflows to inf, or eps^2 underflows to 0
    assert default_d_constant(0.0, eps, mode) == float("inf")
    with pytest.raises(ValueError, match=rf"^eps={eps} is too small: the {mode} "):
        ParamSet(0.0, eps, mode)
    # an explicit constant does not read the default
    assert ParamSet(0.0, eps, mode, d_const=1.0).d == 1.0


def test_paramset_default_d():
    p = ParamSet(0.0, 0.25, INTERNAL)
    assert p.d == 16000.0
    p2 = ParamSet(0.0, 0.25, INTERNAL, d_const=1.0)
    assert p2.d == 1.0


def test_series_bound_builtin_default_holds():
    res = verify_series_bound(1000 / 0.25 ** 2, 0.25)
    assert res.holds
    assert res.partial_sum + res.tail_bound <= res.target


def test_series_bound_small_d_fails():
    res = verify_series_bound(0.001, 0.5)
    assert not res.holds
    # the first term alone is about exp(-1e-6), far above eps^2/1e5
    assert res.partial_sum > res.target


def test_series_bound_large_d_limit():
    res = verify_series_bound(1e9, 0.5)
    assert res.holds and res.partial_sum == 0.0


def test_series_bound_budget_validation():
    with pytest.raises(ValueError):
        verify_series_bound(1.0, 0.5, budget=0)


def test_series_bound_custom_target():
    # external variant: target (1-c) * eps^2 / 1e5
    c, eps = 0.75, 0.25
    d = default_d_constant(c, eps, EXTERNAL)
    res = verify_series_bound(d, eps, target=(1 - c) * eps ** 2 / 1e5)
    assert res.holds


def test_table_worked_example_i16():
    # c=0, eps=0.25, d=1, i=16: phi = 4 - (11.3137... + 4), mu = 1.9142...
    p = ParamSet(0.0, 0.25, INTERNAL, d_const=1.0)
    t = build_threshold_table(p, [16])
    k = int(t.row_index(np.array([16]))[0])
    expected_phi = 0.25 * 16 - (2 * 16 ** 0.625 + 0.25 * 16)
    assert t.phi[k] == pytest.approx(expected_phi, abs=1e-12)
    assert t.mu[k] == pytest.approx(4 * 16 ** -0.375 + 0.5, abs=1e-12)
    assert ((1 - 0) / 4 - t.mu[k] / 2) * 16 == pytest.approx(t.phi[k], abs=1e-9)
    assert not t.active[k]


def test_table_zero_degree_row_inactive():
    p = ParamSet(0.0, 0.25, INTERNAL, d_const=1.0)
    t = build_threshold_table(p, [0, 1])
    k = int(t.row_index(np.array([0]))[0])
    assert t.phi[k] == 0.0 and t.psi[k] == 0.0 and not t.active[k]


def test_psi_is_one_stored_column_with_phi():
    t = build_threshold_table(ParamSet(0.0, 0.02, EXTERNAL, d_const=0.01),
                              range(0, 300, 7))
    assert t.psi is t.phi and t.fpsi is t.fphi


def test_table_d_zero_cancels():
    p = ParamSet(0.0, 0.25, INTERNAL, d_const=0.0, relaxed=True)
    t = build_threshold_table(p, range(1, 50))
    assert np.allclose(t.phi, 0.0, atol=1e-9)


def test_goodness_threshold_internal_formula():
    p = ParamSet(0.0, 0.02, INTERNAL, d_const=0.05)
    t = build_threshold_table(p, [100])
    k = int(t.row_index(np.array([100]))[0])
    assert t.active[k]
    assert t.thr_int[k] == pytest.approx(2 * (1 + t.mu[k]) * t.phi[k], rel=1e-15)


def test_goodness_threshold_external_worked_example():
    # c=0, eps=0.25 (relaxed for external), d=1, i=16
    p = ParamSet(0.0, 0.25, EXTERNAL, d_const=1.0, relaxed=True)
    t = build_threshold_table(p, [16])
    k = 0
    assert t.psi_star[k] == pytest.approx(2.0, abs=1e-12)  # max(psi, i/8)
    lam = 4 * 16 ** -0.375
    assert t.lam[k] == pytest.approx(lam, abs=1e-12)
    assert t.eta[k] == pytest.approx(4 * 0.25 * lam, abs=1e-12)
    assert t.thr_ext[k] == pytest.approx(2 * (1 + t.eta[k]) * 2.0, abs=1e-12)
    assert t.thr_ext[k] == pytest.approx((0.25 + 0.25 * lam) * 16, abs=1e-9)


def test_goodness_threshold_inactive_returns_zero():
    p = ParamSet(0.0, 0.25, INTERNAL)  # default constant: nothing active
    t = build_threshold_table(p, [10])
    # an inactive degree carries no goodness threshold: its row is marked
    # inactive, and the floor every comparison reads is negative
    assert not t.active[0] and t.fthr_int[0] < 0


def test_psi_star_is_exact_maximum():
    p = ParamSet(0.3, 0.05, EXTERNAL, d_const=1.0)
    t = build_threshold_table(p, range(1, 2000))
    lifted = ((1 - 0.3) / 8.0) * t.degrees.astype(float)
    assert (t.psi_star == np.maximum(t.psi, lifted)).all()


def test_eta_branch_switch_is_exact():
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=1.0)
    t = build_threshold_table(p, range(1, 100000))
    i = t.degrees.astype(float)
    low = t.psi < i / 8.0
    assert (t.eta[low] == 4 * 0.09 * t.lam[low]).all()
    assert (t.eta[~low & (t.degrees > 0)] == t.mu[~low & (t.degrees > 0)]).all()


def test_eta_floor_on_active_degrees():
    p = ParamSet(0.0, 0.09, EXTERNAL, d_const=1.0)
    t = build_threshold_table(p, range(1, 200000))
    assert (t.eta[t.active] >= 0.09 / 5 - 1e-15).all()
    # activity begins only past small degrees at this override
    assert t.active.any() and not t.active.all()


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 0.9), st.floats(0.01, 0.2), st.floats(0.001, 10.0),
       st.integers(1, 3000))
def test_phi_forms_agree_property(c, eps, d, i):
    p = ParamSet(c, eps, INTERNAL, d_const=d, relaxed=True)
    t = build_threshold_table(p, [i])
    # construction cross-checks the two closed forms at 1e-12 of term scale;
    # reaching here means it held
    assert t.degrees.tolist() == [i]


def test_csv_dump_schema():
    p = ParamSet(0.0, 0.25, INTERNAL, d_const=1.0)
    t = build_threshold_table(p, [1, 2, 3])
    text = t.dump_csv()
    header = text.splitlines()[0]
    assert header == "i,phi,psi,psi_star,mu,lambda,eta,thr_int,thr_ext,active"
    assert len(text.splitlines()) == 4


def _derived(c, eps, mode):
    # the run parameters of tripart (c given), dual (c = 1-eps) and cutavg
    # (c = 1/4), with the paper's d
    return ParamSet(c, (1 - c) ** 2 * eps / 40, mode, relaxed=True)


@pytest.mark.parametrize("params", [
    _derived(0.5, 0.05, INTERNAL),    # tripart --k 1 --c 0.5 --eps 0.05
    _derived(0.9, 0.1, INTERNAL),     # dual --eps 0.1
    _derived(0.25, 0.05, INTERNAL),   # cutavg --eps 0.05
    _derived(0.99, 0.01, EXTERNAL),   # dual --eps 0.01 --mode ext
    ParamSet(0.0, 0.25, INTERNAL, d_const=1.0),
    ParamSet(0.0, 0.09, EXTERNAL, d_const=1.0),
])
def test_integer_floors_clip_to_the_tabulated_degrees(params):
    import warnings
    with warnings.catch_warnings():
        # an int64 cast of a float beyond 2**63 warns and is platform-defined
        warnings.simplefilter("error")
        t = build_threshold_table(params, range(0, 2001))
        # psi is phi: the other mode at the same (c, eps, d) is active alike
        other = build_threshold_table(dataclasses.replace(
            params, mode=EXTERNAL if params.mode == INTERNAL else INTERNAL,
            d_const=params.d, relaxed=True), range(0, 2001))
    assert (other.active == t.active).all()
    top = 2001
    for floor, col in ((t.fphi, t.phi), (t.fpsi_star, t.psi_star),
                       (t.fthr_int, t.thr_int), (t.fthr_ext, t.thr_ext)):
        exact = np.floor(col)
        inside = (exact >= -1) & (exact <= top)
        assert (floor[inside] == exact[inside]).all()
        assert (floor[exact < -1] == -1).all() and (floor[exact > top] == top).all()
        # an active row's floor is never clipped
        assert inside[t.active].all()
