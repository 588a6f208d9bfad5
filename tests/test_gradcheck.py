"""Tests for the finite-difference gradient oracle and its grid harness."""

import dataclasses
import json
import math
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evidkit.evidence import Activation, evidence_state
from evidkit.gradcheck import (
    DEFAULT_CASES,
    DEFAULT_H,
    DEFAULT_KS,
    DEFAULT_SEED,
    DEFAULT_TOL,
    RED,
    CellResult,
    _KINK_MARGIN,
    _draw_cases,
    central_diff,
    check_case,
    compare_grads,
    grid_cells,
    run_grid,
)
from evidkit.losses import Loss
from evidkit.regularizers import IncReg, anneal_eta1, composite_loss


# --- central_diff ----------------------------------------------------------


def test_central_diff_exact_on_quadratic():
    # Central differences are exact for quadratics up to rounding noise.
    c = np.array([2.0, -0.5, 3.0])
    d = np.array([1.0, 4.0, -2.0])

    def f(rows):
        return (rows * rows) @ c + rows @ d

    o = np.array([0.3, -1.2, 2.5])
    g = central_diff(f, o, h=1e-5)
    assert np.allclose(g, 2.0 * c * o + d, atol=1e-8)


def test_central_diff_cubic_error_is_h_squared():
    # f = sum o^3 has f''' = 6, so the central-difference error per
    # coordinate is h^2 * f'''/6 = h^2.
    def f(rows):
        return (rows**3).sum(axis=1)

    o = np.array([1.0, -2.0, 0.5])
    for h in (1e-3, 1e-4):
        g = central_diff(f, o, h=h)
        err = np.abs(g - 3.0 * o * o)
        assert np.all(err <= h * h * 1.5 + 1e-9)


def test_central_diff_matches_known_gradient_of_logsumexp():
    def f(rows):
        m = rows.max(axis=1, keepdims=True)
        return m[:, 0] + np.log(np.exp(rows - m).sum(axis=1))

    o = np.array([0.2, -1.0, 3.0, 0.0])
    g = central_diff(f, o, h=1e-5)
    sm = np.exp(o - o.max())
    sm /= sm.sum()
    assert np.allclose(g, sm, atol=1e-9)


# --- compare_grads ---------------------------------------------------------


def test_compare_grads_identical_passes_with_zero_error():
    a = np.array([1.0, -2.0, 0.0])
    ok, worst = compare_grads(a, a.copy())
    assert ok
    assert worst == 0.0


def test_compare_grads_relative_rule():
    a = np.array([1.0])
    ok, worst = compare_grads(a, np.array([1.0 + 5e-5]))
    assert ok
    ok, worst = compare_grads(a, np.array([1.0 + 5e-4]))
    assert not ok
    assert worst == pytest.approx(5e-4 / (1.0 + 5e-4))


def test_compare_grads_tiny_pair_uses_absolute_rule():
    # Both entries below 1e-6: only the absolute difference matters even
    # though the relative error is huge.
    ok, _ = compare_grads(np.array([0.0]), np.array([5e-8]))
    assert ok
    ok, _ = compare_grads(np.array([0.0]), np.array([5e-7]))
    assert not ok


def test_compare_grads_mixed_tiny_and_not_tiny_is_relative():
    # One entry tiny, the other not: the pair does not qualify for the
    # absolute rule, and the relative error is large.
    ok, worst = compare_grads(np.array([5e-7]), np.array([2e-6]))
    assert not ok
    assert worst == pytest.approx(1.5e-6 / 2e-6)


def test_compare_grads_skip_mask_excludes_coordinate():
    a = np.array([1.0, 1.0])
    n = np.array([1.0, 2.0])
    ok, worst = compare_grads(a, n)
    assert not ok
    ok, worst = compare_grads(a, n, skip=np.array([False, True]))
    assert ok
    assert worst == 0.0


def test_compare_grads_nan_fails():
    ok, _ = compare_grads(np.array([1.0, float("nan")]), np.array([1.0, 0.5]))
    assert not ok
    ok, _ = compare_grads(np.array([1.0, 1e-7]), np.array([1.0, float("nan")]))
    assert not ok


def test_compare_grads_stack_equals_per_row_calls():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(7, 4))
    n = a * (1.0 + rng.choice([0.0, 5e-5, 5e-3], size=(7, 4)))
    n[1] = a[1] + 5e-7 * rng.choice([0.1, 1.0], size=4)
    a[1] *= 1e-7  # tiny pairs: the absolute rule
    a[2, 1] = np.nan
    n[3, :] = np.nan
    skip = rng.random((7, 4)) < 0.3
    skip[3] = True  # a row with every coordinate skipped passes with error 0
    for mask in (None, skip):
        ok, err = compare_grads(a, n, skip=mask)
        assert ok.shape == err.shape == (7,)
        for i in range(7):
            one = compare_grads(a[i], n[i], skip=None if mask is None else mask[i])
            assert type(one[0]) is bool and type(one[1]) is float
            assert (bool(ok[i]), float(err[i])) == one or (
                ok[i] == one[0] and np.isnan(err[i]) and np.isnan(one[1])
            )
    assert not ok[2] and ok[3] and err[3] == 0.0


# --- grid_cells ------------------------------------------------------------


def test_default_grid_has_39_cells():
    cells = grid_cells()
    assert len(cells) == 39
    names = {f"{ls.value}:{act.value}:{reg}" for ls, act, reg in cells}
    assert len(names) == 39  # all distinct


def test_red_cells_only_under_exp():
    for ls, act, reg in grid_cells():
        if reg == RED:
            assert act == Activation.EXP
    red_cells = [c for c in grid_cells() if c[2] == RED]
    assert len(red_cells) == 3  # one per evidential loss


def test_default_grid_covers_evidential_losses_only():
    losses = {ls for ls, _, _ in grid_cells()}
    assert losses == {Loss.EV_MSE, Loss.EV_CE, Loss.EV_LOG}


def test_grid_cells_with_explicit_subsets():
    cells = grid_cells(losses=[Loss.EV_MSE], acts=[Activation.EXP])
    regs = [reg for _, _, reg in cells]
    assert regs == ["edl_kl", "adl_sum", "units_belief", "none", RED]
    cells = grid_cells(losses=[Loss.EV_MSE], acts=[Activation.RELU])
    assert [reg for _, _, reg in cells] == [
        "edl_kl",
        "adl_sum",
        "units_belief",
        "none",
    ]


# --- check_case ------------------------------------------------------------


def test_check_case_smooth_cell_agrees():
    o = np.array([0.7, -1.3, 2.1])
    analytic, numeric, skip = check_case(
        Loss.EV_LOG, Activation.SOFTPLUS, "edl_kl", o, gt=1
    )
    assert not skip.any()
    ok, worst = compare_grads(analytic, numeric)
    assert ok
    assert worst < 1e-6


def test_check_case_skips_clamped_exp_coordinates():
    o = np.array([31.0, 0.5])
    _, _, skip = check_case(Loss.EV_LOG, Activation.EXP, "none", o, gt=1)
    assert skip.tolist() == [True, False]
    o = np.array([1.0, 0.5])
    _, _, skip = check_case(Loss.EV_LOG, Activation.EXP, "none", o, gt=1)
    assert skip.tolist() == [False, False]


def test_check_case_checks_the_batched_objective_in_one_call(monkeypatch):
    import evidkit.gradcheck as gradcheck

    shapes = []
    real = gradcheck.composite_loss

    def counting(*args, **kwargs):
        shapes.append(np.shape(args[3]))
        return real(*args, **kwargs)

    monkeypatch.setattr(gradcheck, "composite_loss", counting)
    check_case(Loss.EV_CE, Activation.EXP, "edl_kl", np.array([0.3, -0.8, 1.1]), gt=0)
    # the base point and its 2K perturbed rows as one batch
    assert shapes == [(7, 3)]


def test_check_case_red_freezes_the_vacuity_weight():
    # With the weight frozen at the base point, analytic and numeric agree;
    # differentiating through the weight would show up as a mismatch.
    o = np.array([0.4, -0.9, 1.6])
    analytic, numeric, skip = check_case(Loss.EV_MSE, Activation.EXP, RED, o, gt=2)
    ok, worst = compare_grads(analytic, numeric, skip=skip)
    assert ok
    assert worst < 1e-6


@st.composite
def stacked_cases(draw, max_n=6, cells=None):
    """A grid cell (from cells, else the whole grid) and an (N, K) stack of
    cases with mixed labels, lambda1 and epoch."""
    cell = draw(st.sampled_from(cells or grid_cells()))
    k = draw(st.integers(2, 10))
    n = draw(st.integers(1, max_n))
    # up to past the exp clamp, so skipped coordinates are drawn too
    o = draw(arrays(float, (n, k), elements=st.floats(-40.0, 40.0)))
    gt = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    lambda1 = draw(arrays(float, n, elements=st.floats(0.0, 2.0)))
    epoch = draw(arrays(np.int64, n, elements=st.integers(0, 12)))
    return cell, o, gt, lambda1, epoch


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(stacked_cases())
def test_stacked_check_case_equals_single_cases(case):
    (kind, act, reg), o, gt, lambda1, epoch = case
    stacked = check_case(kind, act, reg, o, gt, lambda1=lambda1, epoch=epoch)
    assert all(a.shape == o.shape for a in stacked)
    for i in range(len(o)):
        single = check_case(
            kind, act, reg, o[i], int(gt[i]), lambda1=float(lambda1[i]), epoch=int(epoch[i])
        )
        for got, want in zip(stacked, single):
            assert np.array_equal(got[i], want)


def two_call_check_case(kind, act, reg, o, gt, lambda1, epoch, h=1e-5):
    """Reference: check_case as two composite_loss calls on an (N, K) stack, one
    at the base points and one, through central_diff, on the perturbed rows."""
    red = reg == RED
    inc = IncReg.NONE if red else IncReg(reg)
    eta1 = np.zeros(len(o)) if red else anneal_eta1(lambda1, epoch)
    frozen = evidence_state(act, o).vacuity if red else None
    analytic = composite_loss(
        kind, inc, act, o, gt, eta1=eta1, use_correct_reg=red, correct_weight=frozen
    ).grad
    rep = 2 * o.shape[-1]

    def perturbed_loss(rows):
        return composite_loss(
            kind, inc, act, rows, np.repeat(gt, rep), eta1=np.repeat(eta1, rep),
            use_correct_reg=red, correct_weight=None if frozen is None else np.repeat(frozen, rep),
        ).loss

    return analytic, central_diff(perturbed_loss, o, h=h)


@pytest.mark.parametrize(
    "cell", grid_cells(), ids=[f"{ls.value}:{act.value}:{reg}" for ls, act, reg in grid_cells()]
)
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_call_check_case_equals_the_two_call_form(cell, data):
    (kind, act, reg), o, gt, lambda1, epoch = data.draw(stacked_cases(cells=[cell]))
    analytic, numeric, _ = check_case(kind, act, reg, o, gt, lambda1=lambda1, epoch=epoch)
    want_analytic, want_numeric = two_call_check_case(kind, act, reg, o, gt, lambda1, epoch)
    assert np.array_equal(analytic, want_analytic)
    assert np.array_equal(numeric, want_numeric)


# --- run_grid --------------------------------------------------------------


def test_run_grid_makes_one_objective_call_per_distinct_k(monkeypatch):
    import evidkit.gradcheck as gradcheck

    shapes = []
    real = gradcheck.composite_loss

    def counting(*args, **kwargs):
        shapes.append(np.shape(args[3]))
        return real(*args, **kwargs)

    monkeypatch.setattr(gradcheck, "composite_loss", counting)
    n_cases = 3  # fewer cases than Ks, so some cells see a K twice and others not at all
    shared, per_cell = 0, []
    for ls, act, reg in grid_cells():
        shapes.clear()
        run_grid(losses=[ls], acts=[act], regs=[reg], n_cases=n_cases, seed=4)
        ks = [k for _, k in shapes]
        assert len(set(ks)) == len(ks)  # one group, so one call, per distinct K
        per_group = [rows // (2 * k + 1) for rows, k in shapes]
        assert shapes == [((2 * k + 1) * n, k) for n, (_, k) in zip(per_group, shapes)]
        assert sum(per_group) == n_cases
        shared += any(n > 1 for n in per_group)
        per_cell += shapes
    assert shared > 0  # some group really holds more than one case
    # the whole grid, checked K by K, makes the same calls on the same row counts
    shapes.clear()
    run_grid(n_cases=n_cases, seed=4)
    assert sorted(shapes) == sorted(per_cell)


# --- the case draws: one rng.random block per cell, a row per case ----------


def _cases(draws):
    """Per case (k, gt, lambda1, epoch, logits), from _draw_cases' return."""
    k, gt, lambda1, epoch, groups = draws
    assert list(groups) == list(dict.fromkeys(k.tolist()))  # first-seen order
    o = [None] * len(k)
    for kk, (idx, rows) in groups.items():
        assert rows.shape == (len(idx), kk) and np.all(k[idx] == kk)
        for i, row in zip(idx.tolist(), rows.tolist()):
            o[i] = row
    return list(zip(k.tolist(), gt.tolist(), lambda1.tolist(), epoch.tolist(), o))


_STREAM_KS = (DEFAULT_KS, (5,), (2, 100), (5, 5))


@pytest.mark.parametrize("ks", _STREAM_KS, ids=lambda ks: "-".join(map(str, ks)))
def test_draw_cases_agree_at_1_7_and_200_cases_and_stay_in_range(ks):
    for i, act in enumerate(Activation):
        cases = _cases(_draw_cases(np.random.default_rng([200, i]), ks, 200, act))
        # a stream's first n cases do not depend on how many more are drawn (floats compared exactly)
        for n_cases in (1, 7):
            assert _cases(_draw_cases(np.random.default_rng([200, i]), ks, n_cases, act)) == cases[:n_cases]
        assert {k for k, *_ in cases} == set(ks)
        for k, gt, lambda1, epoch, o in cases:
            assert 0 <= gt < k and 1 <= epoch <= 12 and 0.25 <= lambda1 < 2.0
            assert all(-4.0 <= x < 4.0 for x in o)
            if act == Activation.RELU:
                assert all(abs(x) >= _KINK_MARGIN for x in o)


def test_run_grid_refuses_a_bad_ks_before_any_draw(monkeypatch):
    # () and (0,) used to fail inside NumPy, (1,) only after drawing, and (2.7,) ran K = 2
    import evidkit.gradcheck as gradcheck

    # no cell may be drawn or checked
    monkeypatch.setattr(gradcheck, "_draw_cases", None)
    monkeypatch.setattr(gradcheck, "composite_loss", None)
    for ks in ((), (0,), (1,), (2.7,), (3, 1), (True, 3), ("5",)):
        with pytest.raises(ValueError, match=r"^ks: must be a non-empty sequence of ints >= 2"):
            run_grid(losses=[Loss.EV_LOG], acts=[Activation.EXP], regs=["none"], n_cases=2, ks=ks)


def test_run_grid_rejects_a_corrupt_value_that_names_no_cell_being_run():
    grid = dict(losses=[Loss.EV_MSE], acts=[Activation.RELU], n_cases=1)
    # a name that is no cell, and a real cell that this grid leaves out
    for corrupt in ("ev_mse:exp:nonexistent", "ev_mse:exp:none"):
        with pytest.raises(ValueError, match=f"^corrupt: {corrupt} is not a cell"):
            run_grid(corrupt=corrupt, **grid)


def test_run_grid_keeps_the_first_worst_case(monkeypatch):
    import evidkit.gradcheck as gradcheck

    # every case ties, so the worst is the first case drawn: the one a
    # one-case run sees, since later draws do not change earlier ones
    monkeypatch.setattr(
        gradcheck, "compare_grads", lambda a, *_, **kw: (np.full(len(a), True), np.full(len(a), 0.5))
    )
    cell = dict(losses=[Loss.EV_CE], acts=[Activation.EXP], regs=[RED], seed=3)
    (first,) = run_grid(n_cases=1, **cell)
    (many,) = run_grid(n_cases=12, **cell)
    assert many.worst_detail == first.worst_detail != ""
    assert many.worst_k == first.worst_k


def test_run_grid_nan_case_fails_but_is_never_the_worst(monkeypatch):
    import evidkit.gradcheck as gradcheck

    real = gradcheck.composite_loss

    def nan_first_case(*args, **kwargs):
        out = real(*args, **kwargs)
        if first_call:
            out.grad[0, 0] = np.nan  # row 0 of the first call is case 0, which opens the first K
            first_call.clear()
        return out

    monkeypatch.setattr(gradcheck, "composite_loss", nan_first_case)
    cell = dict(losses=[Loss.EV_LOG], acts=[Activation.SOFTPLUS], regs=["none"], seed=5)
    for n_cases in (1, 9):
        first_call = [True]
        (got,) = run_grid(n_cases=n_cases, **cell)
        assert not got.passed
        assert got.max_err == got.max_err  # never NaN
        assert "nan" not in got.worst_detail
    assert got.max_err > 0.0 and got.worst_detail != ""
    first_call = [True]
    (alone,) = run_grid(n_cases=1, **cell)
    assert (alone.max_err, alone.worst_k, alone.worst_detail) == (0.0, 0, "")


def test_run_grid_applies_the_rule_once_per_cell_and_k(monkeypatch):
    import evidkit.gradcheck as gradcheck

    real, calls = gradcheck.compare_grads, []

    def counting(analytic, *args, **kwargs):
        calls.append(np.shape(analytic))
        return real(analytic, *args, **kwargs)

    monkeypatch.setattr(gradcheck, "compare_grads", counting)
    results = run_grid(n_cases=50)
    assert len(calls) <= len(DEFAULT_KS)  # one call per K, for every cell's cases of that K
    assert sum(shape[0] for shape in calls) == 39 * 50
    assert all(r.passed for r in results)


def per_group_grid(losses=None, acts=None, regs=None, n_cases=DEFAULT_CASES, h=DEFAULT_H,
                   tol=DEFAULT_TOL, ks=DEFAULT_KS, seed=DEFAULT_SEED, corrupt=None):
    """Reference: run_grid as a loop over cells and each cell's K groups, one
    check_case and one compare_grads call per (cell, K); the worst case is the
    first maximum in case order, a NaN error counting as 0."""
    results = []
    for kind, act, reg in grid_cells(losses, acts, regs):
        cell = CellResult(kind.value, act.value, reg, n_cases)
        rng = np.random.default_rng([seed, zlib.crc32(cell.name.encode())])
        k, gt, lambda1, epoch, groups = _draw_cases(rng, list(ks), n_cases, act)
        passed, errs = np.empty(n_cases, dtype=bool), np.empty(n_cases)
        checked = {}
        for kk, (idx, o) in groups.items():
            analytic, numeric, skip = check_case(
                kind, act, reg, o, gt[idx], lambda1=lambda1[idx], epoch=epoch[idx], h=h
            )
            if cell.name == corrupt:
                analytic[:, 0] += 1e-2
            passed[idx], errs[idx] = compare_grads(analytic, numeric, rel_tol=tol, skip=skip)
            cell.n_skipped += int(skip.sum())
            checked[kk] = idx, analytic, numeric
        cell.passed = bool(passed.all())
        errs[np.isnan(errs)] = 0.0
        worst = int(np.argmax(errs))
        if errs[worst] > 0.0:
            idx, analytic, numeric = checked[int(k[worst])]
            j = int(np.searchsorted(idx, worst))
            cell.max_err, cell.worst_k = float(errs[worst]), int(k[worst])
            cell.worst_detail = (cell.worst_k, int(gt[worst]), analytic[j], numeric[j])
        results.append(cell)
    return results


def _fields(results):
    return [dataclasses.asdict(r) | {"max_err": r.max_err.hex()} for r in results]


_CORRUPT = "ev_log:exp:edl_kl"


@pytest.mark.parametrize(
    "grid",
    [
        pytest.param(dict(n_cases=n, seed=seed, corrupt=corrupt), id=f"n{n}-seed{seed}-{corrupt}")
        for n in (1, 7, 50)
        for seed in (3, 2024)
        for corrupt in (None, _CORRUPT)
    ]
    + [
        pytest.param(dict(n_cases=7, seed=3, ks=(3,)), id="ks3"),
        pytest.param(dict(n_cases=7, seed=3, ks=(3,), corrupt=_CORRUPT), id=f"ks3-{_CORRUPT}"),
        pytest.param(dict(n_cases=20, seed=11, acts=[Activation.RELU]), id="relu-only"),
        pytest.param(
            dict(n_cases=20, seed=11, acts=[Activation.EXP], corrupt="ev_mse:exp:red"),
            id="exp-only-ev_mse:exp:red",
        ),
    ],
)
def test_run_grid_equals_the_per_group_loop(grid):
    # every CellResult field, max_err to the bit and worst_detail's text
    assert _fields(run_grid(**grid)) == _fields(per_group_grid(**grid))


def test_run_grid_matches_pinned_results():
    # Every CellResult field, max_err to the bit, as pinned from the one-block
    # case draw. A change to the draws or the checked cases moves it; after a
    # deliberate one, regenerate with
    #   evidkit gradcheck --samples 20 --seed 7 --json tests/data/gradcheck_n20_seed7.json
    pinned = Path(__file__).parent / "data" / "gradcheck_n20_seed7.json"
    golden = json.loads(pinned.read_text())
    got = [
        dataclasses.asdict(r) | {"max_err": r.max_err.hex()} for r in run_grid(n_cases=20, seed=7)
    ]
    assert got == golden


def test_run_grid_full_default_grid_passes():
    results = run_grid(n_cases=8)
    assert len(results) == 39
    assert all(r.passed for r in results)
    assert all(r.max_err < 1e-4 for r in results)
    # Default sampling stays far below the clamp, so nothing is skipped.
    assert all(r.n_skipped == 0 for r in results)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: finite-difference error, not a wrong gradient. At K=10 the last "
    "entry reads 1.072796e-06 analytic against 1.073075e-06 numeric, just above _TINY, so the "
    "relative rule sees 2.6e-4; the cell passes at h=3e-5 and fails at h=1e-4 and h=3e-6",
)
def test_check_case_passes_the_benchmark_gradcheck_seed_117_case():
    # the case that failed the gradcheck workload at workload seed 117 (grid seed
    # 2948099320) under the per-case stream the one-block draw replaced
    o = np.array([float.fromhex(x) for x in (
        "-0x1.34686b64abec4p+1 0x1.baf0be86b8db6p+1 -0x1.051f0d58c7f80p-3 -0x1.03b4f811b91a8p+1 "
        "-0x1.ab20d2ce565d8p+1 0x1.f185d7e75789cp+0 -0x1.8dd5208914d6cp+0 -0x1.15222ade4ba9cp+0 "
        "-0x1.b6f62cb863900p-3 -0x1.f3efe5d521f00p-2"
    ).split()])
    analytic, numeric, skip = check_case(
        Loss.EV_MSE, Activation.SOFTPLUS, "edl_kl", o, 0, lambda1=1.0132964927161867, epoch=7
    )
    passed, err = compare_grads(analytic, numeric, skip=skip)
    assert passed, err


def test_run_grid_is_deterministic():
    a = run_grid(losses=[Loss.EV_CE], n_cases=5, seed=99)
    b = run_grid(losses=[Loss.EV_CE], n_cases=5, seed=99)
    assert [r.name for r in a] == [r.name for r in b]
    for ra, rb in zip(a, b):
        assert ra.max_err == rb.max_err  # bit-exact
        assert ra.worst_detail == rb.worst_detail


def test_run_grid_cell_results_do_not_depend_on_grid_shape():
    # Each cell derives its rng stream from its own name, so the same cell
    # run as part of a different grid sees the same cases.
    wide = run_grid(
        losses=[Loss.EV_MSE],
        acts=[Activation.EXP],
        regs=["none", "edl_kl"],
        n_cases=6,
        seed=5,
    )
    narrow = run_grid(
        losses=[Loss.EV_MSE],
        acts=[Activation.EXP],
        regs=["edl_kl"],
        n_cases=6,
        seed=5,
    )
    by_name = {r.name: r for r in wide}
    assert by_name["ev_mse:exp:edl_kl"].max_err == narrow[0].max_err


def test_run_grid_corrupt_cell_fails_and_others_pass():
    results = run_grid(
        losses=[Loss.EV_MSE],
        acts=[Activation.RELU, Activation.SOFTPLUS],
        n_cases=3,
        corrupt="ev_mse:relu:none",
    )
    by_name = {r.name: r for r in results}
    assert not by_name["ev_mse:relu:none"].passed
    assert by_name["ev_mse:relu:none"].max_err > 1e-4
    for name, r in by_name.items():
        if name != "ev_mse:relu:none":
            assert r.passed


def test_run_grid_rejects_bad_n_cases():
    with pytest.raises(ValueError):
        run_grid(n_cases=0)


def test_run_grid_owns_its_settings_rule():
    # an infinite tol would pass every cell, a negative one fail every cell
    for setting, message in (
        (dict(n_cases=0), "n_cases: must be >= 1"),
        (dict(tol=math.inf), "tol: must be finite and > 0"),
        (dict(tol=-1.0), "tol: must be finite and > 0"),
        (dict(tol=0.0), "tol: must be finite and > 0"),
        (dict(h=math.nan), "h: must be finite and > 0"),
        (dict(h=-math.inf), "h: must be finite and > 0"),
        (dict(seed=-1), "seed: must be >= 0"),
        # non-ints used to fail inside NumPy with a message that named no setting
        (dict(n_cases=2.5), "n_cases: must be an int, got 2.5"),
        (dict(n_cases=True), "n_cases: must be an int, got True"),
        (dict(n_cases="3"), "n_cases: must be an int, got '3'"),
        (dict(seed=1.5), "seed: must be an int, got 1.5"),
        (dict(seed=False), "seed: must be an int, got False"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_grid(losses=[Loss.EV_LOG], acts=[Activation.EXP], regs=["none"], **setting)


def test_run_grid_takes_numpy_ints_as_its_int_settings():
    cell = dict(losses=[Loss.EV_LOG], acts=[Activation.EXP], regs=["none"])
    (plain,) = run_grid(n_cases=3, seed=5, **cell)
    (numpy_ints,) = run_grid(n_cases=np.int64(3), seed=np.uint32(5), **cell)
    assert numpy_ints == plain


def test_cell_worst_detail_mentions_shape_and_values():
    (r,) = run_grid(
        losses=[Loss.EV_LOG], acts=[Activation.EXP], regs=["none"], n_cases=4
    )
    assert r.name == "ev_log:exp:none"
    assert f"K={r.worst_k}" in r.worst_detail
    assert "analytic=" in r.worst_detail and "numeric=" in r.worst_detail
