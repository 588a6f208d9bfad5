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
    DEFAULT_KS,
    RED,
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
    shared = 0
    for ls, act, reg in grid_cells():
        shapes.clear()
        run_grid(losses=[ls], acts=[act], regs=[reg], n_cases=n_cases, seed=4)
        ks = [k for _, k in shapes]
        assert len(set(ks)) == len(ks)  # one group, so one call, per distinct K
        per_group = [rows // (2 * k + 1) for rows, k in shapes]
        assert shapes == [((2 * k + 1) * n, k) for n, (_, k) in zip(per_group, shapes)]
        assert sum(per_group) == n_cases
        shared += any(n > 1 for n in per_group)
    assert shared > 0  # some group really holds more than one case


@pytest.mark.parametrize("seed", [0, 7, 2024, 31337])
def test_case_draws_equal_choice_and_uniform(seed):
    # run_grid's k and lambda1 draws against Generator.choice and uniform, in
    # run_grid's draw order; the state holds integers' buffered half-word too
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = set()
    for _ in range(100):
        k = DEFAULT_KS[new.integers(len(DEFAULT_KS))]
        assert k == old.choice(DEFAULT_KS)
        assert new.bit_generator.state == old.bit_generator.state
        drawn.add(k)
        for rng in (new, old):  # gt and the logits
            rng.integers(k)
            rng.uniform(-4.0, 4.0, k)
        assert 0.25 + 1.75 * new.random() == old.uniform(0.25, 2.0)
        assert new.bit_generator.state == old.bit_generator.state
        for rng in (new, old):  # the epoch
            rng.integers(1, 13)
    assert drawn == set(DEFAULT_KS)


# --- the case stream: one pass over raw words, against the Generator loop ----


def _reference_cases(rng, ks, n_cases, act):
    """The per-case Generator loop that _draw_cases reproduces: per case
    (k, gt, o, lambda1, epoch), drawn in this order."""
    cases = []
    for _ in range(n_cases):
        k = int(ks[rng.integers(len(ks))])
        gt = int(rng.integers(k))
        o = rng.uniform(-4.0, 4.0, k)
        if act == Activation.RELU:  # the kink nudge, entry by entry
            near = np.abs(o) < 0.05
            o[near] = np.where(o[near] >= 0, o[near] + 0.05, o[near] - 0.05)
        cases.append((k, gt, o, 0.25 + 1.75 * rng.random(), int(rng.integers(1, 13))))
    return cases


def _assert_draws_equal(got, cases):
    k, gt, lambda1, epoch, groups = got
    assert k.tolist() == [c[0] for c in cases]
    assert gt.tolist() == [c[1] for c in cases]
    assert lambda1.tolist() == [c[3] for c in cases]  # floats compared exactly
    assert epoch.tolist() == [c[4] for c in cases]
    assert list(groups) == list(dict.fromkeys(c[0] for c in cases))  # first-seen order
    for kk, (idx, o) in groups.items():
        assert idx.tolist() == [i for i, c in enumerate(cases) if c[0] == kk]
        assert o.tobytes() == np.array([cases[i][2] for i in idx]).tobytes()


_STREAM_KS = (DEFAULT_KS, (5,), (2, 100), (5, 5))


def test_draw_cases_equal_the_generator_loop_over_seeds_and_cells():
    # 200 seeds x all 39 cells, seven cases each, the streams taking the four ks in turn
    j = 0
    for seed in range(200):
        for kind, act, reg in grid_cells():
            entropy = [seed, zlib.crc32(f"{kind.value}:{act.value}:{reg}".encode())]
            ks = _STREAM_KS[j % len(_STREAM_KS)]
            cases = _reference_cases(np.random.default_rng(entropy), ks, 7, act)
            _assert_draws_equal(_draw_cases(np.random.default_rng(entropy), ks, 7, act), cases)
            j += 1


@pytest.mark.parametrize("ks", _STREAM_KS, ids=lambda ks: "-".join(map(str, ks)))
def test_draw_cases_equal_the_generator_loop_at_1_7_and_200_cases(ks):
    # a stream's first n cases do not depend on how many more are drawn
    for i, act in enumerate(Activation):
        cases = _reference_cases(np.random.default_rng([200, i]), ks, 200, act)
        for n_cases in (1, 7, 200):
            got = _draw_cases(np.random.default_rng([200, i]), ks, n_cases, act)
            _assert_draws_equal(got, cases[:n_cases])


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _generator_whose_next_word_is(word, hi=0x0123456789ABCDEF):
    """A Generator whose PCG64 state makes `word` the next raw 64-bit word.

    PCG64 steps its 128-bit state s to s * mult + inc, then outputs
    rotr64(hi ^ lo, hi >> 58) of the new state; this solves that for the
    low half lo, given the high half hi, and steps back once."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    rot = hi >> 58
    lo = hi ^ (((word << rot) | (word >> (64 - rot))) & (2**64 - 1))
    after = (hi << 64) | lo
    inc = state["state"]["inc"]
    state["state"]["state"] = (after - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128
    rng.bit_generator.state = state
    return rng


def test_generator_whose_next_word_is_sets_the_next_raw_word():
    for word in (0, 1, 429496730, 2**64 - 1):
        for hi in (0, 0x0123456789ABCDEF, 2**64 - 1):
            assert int(_generator_whose_next_word_is(word, hi).bit_generator.random_raw()) == word


@pytest.mark.parametrize(
    "ks, word, m, x",
    [
        # the K index (m = 3) rejects x = 0 twice: the low half, then the buffered high half
        ((2, 3, 5), 0, 3, 0),
        # gt at K = 10: x * 10 mod 2**32 is 4, below (2**32 - 10) % 10 = 6, though x * 10 >> 32 is 1
        ((10,), 429496730, 10, 429496730),
        # the epoch (m = 12) draws from the high half that gt left buffered across the doubles
        ((2,), 0x40000000 << 32 | 1, 12, 0x40000000),
    ],
    ids=["k-index-both-halves", "gt-leftover-4", "epoch-buffered-half"],
)
def test_draw_cases_take_the_lemire_rejection_branch_as_integers_does(ks, word, m, x):
    assert (x * m) % 2**32 < (2**32 - m) % m  # the chosen word's half is rejected
    for act in (Activation.EXP, Activation.RELU):
        cases = _reference_cases(_generator_whose_next_word_is(word), ks, 3, act)
        _assert_draws_equal(_draw_cases(_generator_whose_next_word_is(word), ks, 3, act), cases)


def test_draw_cases_extend_the_block_when_rejections_outgrow_it():
    # one case at ks = (2, 3, 5) reads at most 8 words when nothing is rejected;
    # two rejections on word 0 and a K of 5 make it read a 9th, past the first block
    hi = next(
        hi for hi in range(1, 100)
        if _reference_cases(_generator_whose_next_word_is(0, hi), (2, 3, 5), 1, Activation.EXP)[0][0] == 5
    )
    for n_cases in (1, 2):
        cases = _reference_cases(_generator_whose_next_word_is(0, hi), (2, 3, 5), n_cases, Activation.EXP)
        got = _draw_cases(_generator_whose_next_word_is(0, hi), (2, 3, 5), n_cases, Activation.EXP)
        _assert_draws_equal(got, cases)


class _ShortBlocks:
    """A Generator stand-in whose random_raw hands out at most `size` words a
    call, so _draw_cases must extend its block, case after case."""

    def __init__(self, rng, size):
        self.bit_generator = self
        self.raw, self.size = rng.bit_generator.random_raw, size

    def random_raw(self, n):
        return self.raw(min(n, self.size))


def test_draw_cases_do_not_depend_on_how_the_raw_words_are_blocked():
    for seed in range(5):
        for ks in _STREAM_KS:
            for act in (Activation.EXP, Activation.RELU):
                cases = _reference_cases(np.random.default_rng(seed), ks, 20, act)
                for size in (1, 2, 3, 7):
                    got = _draw_cases(_ShortBlocks(np.random.default_rng(seed), size), ks, 20, act)
                    _assert_draws_equal(got, cases)


def test_run_grid_refuses_a_bad_ks_before_any_draw(monkeypatch):
    # () and (0,) used to fail inside NumPy, (1,) only after drawing, and (2.7,) ran K = 2
    import evidkit.gradcheck as gradcheck

    monkeypatch.setattr(gradcheck, "check_case", None)  # no cell may be checked
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

    real = gradcheck.check_case

    def nan_first_case(*args, **kwargs):
        analytic, numeric, skip = real(*args, **kwargs)
        if first_call:
            analytic[0, 0] = np.nan  # case 0 opens the first K group
            first_call.clear()
        return analytic, numeric, skip

    monkeypatch.setattr(gradcheck, "check_case", nan_first_case)
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
    assert len(calls) <= 39 * 4  # at most one call per (cell, K) group
    assert sum(shape[0] for shape in calls) == 39 * 50
    assert all(r.passed for r in results)


def test_run_grid_matches_pinned_results():
    # Pinned from the per-case oracle this batched one replaced: every
    # CellResult field, max_err to the bit, must stay as it was. Regenerate with
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
def test_run_grid_passes_the_benchmark_gradcheck_seed_117():
    # the gradcheck workload's grid seed at workload seed 117 (its first sub-seed);
    # of workload seeds 1-300 only this one fails, and only in this cell
    [cell] = run_grid([Loss.EV_MSE], [Activation.SOFTPLUS], ["edl_kl"], n_cases=50, seed=2948099320)
    assert cell.passed, cell.worst_detail


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
