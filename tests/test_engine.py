"""Leveraging schemes, their floors, and the boosting loop."""

import math
import re

import numpy as np
import pytest

from fairboost import (
    BoostedDensity,
    Dataset,
    FitConfig,
    LeveragingScheme,
    TreeConfig,
    engine,
    fbde_fit,
    fit_empirical,
    kl_divergence,
    leverage,
    representation_rate,
    rr_lower_bound,
    seeds,
)
from fairboost.engine import EXACT, RELATIVE, mollifier_size
from fairboost.tree import FAIL

from conftest import LN2, uniform_initial, xa_schema


def exact_scheme(tau=0.9):
    return LeveragingScheme(kind=EXACT, tau=tau)


def relative_scheme(tau=0.9):
    return LeveragingScheme(kind=RELATIVE, tau=tau)


# -- scheme construction ------------------------------------------------


def test_scheme_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        LeveragingScheme(kind="boost", tau=0.9)
    with pytest.raises(ValueError, match="tau must be in \\(0, 1\\)"):
        LeveragingScheme(kind=EXACT, tau=1.0)
    with pytest.raises(ValueError, match="tau must be in \\(0, 1\\)"):
        LeveragingScheme(kind=RELATIVE, tau=0.0)
    with pytest.raises(ValueError, match="tau must be in \\(0, 1\\)"):
        LeveragingScheme(kind=EXACT, tau=None)
    with pytest.raises(ValueError, match="c_bound must be > 0"):
        LeveragingScheme(kind=EXACT, tau=0.9, c_bound=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"c_bound must be finite, got {bad!r}"):
            LeveragingScheme(kind=EXACT, tau=0.9, c_bound=bad)


# -- coefficients -------------------------------------------------------


def test_leverage_exact_frozen_value():
    # -ln(0.9) / (ln2 * 2^2)
    assert leverage(exact_scheme(0.9), 1) == pytest.approx(0.038000773361262494, rel=1e-12)


def test_leverage_exact_halves_each_round():
    s = exact_scheme(0.7)
    for t in range(1, 8):
        assert leverage(s, t + 1) == pytest.approx(leverage(s, t) / 2.0, rel=1e-15)


def test_leverage_exact_t1_equals_relative_t2():
    # both denominators reduce to 4C
    assert leverage(exact_scheme(0.9), 1) == leverage(relative_scheme(0.9), 2)


def test_leverage_relative_decays_harmonically():
    s = relative_scheme(0.8)
    for t in range(1, 6):
        assert leverage(s, t) == pytest.approx(-math.log(0.8) / (2 * LN2 * t), rel=1e-14)


def test_leverage_vanishes_as_tau_approaches_one():
    assert leverage(exact_scheme(1.0 - 1e-12), 1) < 1e-12
    assert leverage(relative_scheme(1.0 - 1e-12), 1) < 1e-12


def test_leverage_round_validation():
    with pytest.raises(ValueError, match="t must be >= 1"):
        leverage(exact_scheme(), 0)
    assert leverage(exact_scheme(), 1022) == -math.log(0.9) / (LN2 * 2.0**1023) > 0  # subnormal, and kept
    assert leverage(LeveragingScheme(EXACT, 0.9, 1e300), 26) > 0
    # 2^(t+1) or t past the largest float, or a large C, makes theta_t 0.0; a subnormal C makes it inf
    for scheme, t, value in (
        (exact_scheme(), 1023, 0.0),
        (relative_scheme(), 10**400, 0.0),
        (LeveragingScheme(EXACT, 0.9, 1e300), 27, 0.0),
        (LeveragingScheme(RELATIVE, 0.9, 1e308), 1, 0.0),
        (LeveragingScheme(RELATIVE, 0.9, 1e-320), 1, math.inf),
    ):
        message = f"the {scheme.kind} scheme's theta_t at round {t} is {value!r} for tau 0.9 and C {scheme.c_bound!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}; it must be a positive finite float$"):
            leverage(scheme, t)


# -- floors and mollifier sizes ----------------------------------------


def test_rr_floor_exact_is_tau():
    s = exact_scheme(0.73)
    for t in (1, 3, 10):
        assert rr_lower_bound(s, t) == 0.73


def test_rr_floor_relative_frozen_value():
    assert rr_lower_bound(relative_scheme(0.9), 1) == pytest.approx(0.9, rel=1e-15)
    # 0.9 ** (1 + ln 5)
    assert rr_lower_bound(relative_scheme(0.9), 5) == pytest.approx(
        0.7596239855180558, rel=1e-12
    )


def test_rr_floor_relative_decreasing():
    s = relative_scheme(0.85)
    vals = [rr_lower_bound(s, t) for t in range(1, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mollifier_size_values():
    assert mollifier_size(exact_scheme(0.7), 9) == pytest.approx(
        0.35667494393873245, rel=1e-12
    )
    assert mollifier_size(relative_scheme(0.9), 1) == pytest.approx(
        mollifier_size(exact_scheme(0.9), 1), rel=1e-15
    )
    assert mollifier_size(relative_scheme(0.9), 10) == pytest.approx(
        0.34796206840170285, rel=1e-12
    )
    with pytest.raises(ValueError, match="t must be >= 1"):
        mollifier_size(exact_scheme(), 0)
    with pytest.raises(ValueError, match="t must be >= 1"):
        rr_lower_bound(exact_scheme(), 0)


def test_floor_is_exp_of_negative_mollifier_size():
    for s in (exact_scheme(0.8), relative_scheme(0.8)):
        for t in (1, 2, 6):
            assert rr_lower_bound(s, t) == pytest.approx(
                math.exp(-mollifier_size(s, t)), rel=1e-12
            )


# -- fit configuration --------------------------------------------------


def test_fit_config_validation():
    s = exact_scheme()
    with pytest.raises(ValueError, match="rounds must be >= 0"):
        FitConfig(rounds=-1, scheme=s)
    with pytest.raises(ValueError, match="^the exact scheme's theta_t at round 1023 is 0.0 "):
        FitConfig(rounds=1023, scheme=s)
    assert FitConfig(rounds=1023, scheme=relative_scheme()).rounds == 1023
    # theta_t falls with t, so rounds 1 and T bound it: a subnormal C is refused at round 1
    with pytest.raises(ValueError, match="^the exact scheme's theta_t at round 1 is inf "):
        FitConfig(rounds=5, scheme=LeveragingScheme(EXACT, 0.9, 1e-320))


# -- the boosting loop --------------------------------------------------


def skewed_dataset(schema):
    """Group 0 lives on low x codes, group 1 on high ones, 3:1 imbalance."""
    rows = []
    for x, a, n in ((0, 0, 50), (1, 0, 40), (2, 1, 20), (3, 1, 10)):
        rows.extend([[x, a]] * n)
    return Dataset(schema, np.asarray(rows, dtype=np.int64))


@pytest.fixture
def fit_setup():
    s = xa_schema(nx=4, na=2)
    return s, skewed_dataset(s), uniform_initial(s)


def test_fit_zero_rounds_returns_anchor(fit_setup):
    # a zero-round fit is an ordinary one: its trace is the t=0 anchor row alone
    s, p, q0 = fit_setup
    stack, trace, records = fbde_fit(p, q0, FitConfig(rounds=0, scheme=exact_scheme()))
    assert len(stack.rounds) == 0 and records == []
    assert np.array_equal(stack.table().mass, BoostedDensity(q0).table().mass)
    kl = kl_divergence(fit_empirical(p, 0.0).mass, stack.table().mass)
    assert trace == [engine.TraceRow(0, 0.0, None, None, None, 1.0, 1.0, kl, None, 1.0)]


def test_fit_trace_shape_and_baseline(fit_setup):
    s, p, q0 = fit_setup
    stack, trace, _ = fbde_fit(p, q0, FitConfig(rounds=5, scheme=exact_scheme(0.7)))
    assert len(stack.rounds) == 5
    assert len(trace) == 6
    base = trace[0]
    assert (base.t, base.theta, base.rr, base.rr_bound, base.z) == (0, 0.0, 1.0, 1.0, 1.0)
    assert base.gamma_p is None and base.regime is None
    for t, row in enumerate(trace):
        assert row.t == t
    assert trace[1].kl_train is not None


def test_fit_rows_match_scheme_wiring(fit_setup):
    s, p, q0 = fit_setup
    scheme = relative_scheme(0.8)
    stack, trace, _ = fbde_fit(p, q0, FitConfig(rounds=4, scheme=scheme))
    for row in trace[1:]:
        assert row.theta == leverage(scheme, row.t)
        assert row.rr_bound == rr_lower_bound(scheme, row.t)
        assert row.z > 0
    # the per-group normalizers live in the stack (and the model), not the trace
    assert [row.z for row in trace[1:]] == [rnd.z for rnd in stack.rounds]
    assert all((rnd.z_by_group > 0).all() for rnd in stack.rounds)


def test_fit_respects_rr_floor(fit_setup):
    s, p, q0 = fit_setup
    for scheme in (exact_scheme(0.7), relative_scheme(0.7)):
        stack, trace, _ = fbde_fit(p, q0, FitConfig(rounds=8, scheme=scheme))
        for row in trace:
            assert row.rr >= row.rr_bound - 1e-9
        assert stack.representation_rate() >= rr_lower_bound(scheme, 8) - 1e-9


def test_fit_trees_share_the_scheme_c_bound(fit_setup):
    # theta_t = -ln(tau) / (C 2^(t+1)) holds the rate floor only for trees
    # scoring inside the same C, so the trees take C from the scheme
    s, p, q0 = fit_setup
    stack, trace, _ = fbde_fit(p, q0, FitConfig(rounds=10, scheme=LeveragingScheme(EXACT, tau=0.9, c_bound=1.0)))
    leaves = set()
    for rnd in stack.rounds:
        assert rnd.classifier.c_bound == 1.0
        leaves.update(rnd.classifier.domain_scores(q0.x_schema).tolist())
    assert leaves <= {-1.0, 0.0, 1.0}
    assert leaves != {0.0}  # some tree votes, so the floor below is tested
    for row in trace:
        assert row.rr >= row.rr_bound


def test_fit_stays_in_certified_mollifier(fit_setup):
    s, p, q0 = fit_setup
    scheme = exact_scheme(0.7)
    stack, _, _ = fbde_fit(p, q0, FitConfig(rounds=8, scheme=scheme))
    # the anchor's group marginal is uniform, so Q_t inside the anchored mollifier of
    # size eps_t is Q_t's rate at or above exp(-eps_t)
    for t in (2, 5, 8):
        rate = representation_rate(BoostedDensity(q0, stack.rounds[:t]).table())
        assert rate >= math.exp(-mollifier_size(scheme, t) - 1e-12)


def test_fit_near_one_tau_freezes_anchor(fit_setup):
    s, p, q0 = fit_setup
    stack, _, _ = fbde_fit(p, q0, FitConfig(rounds=4, scheme=exact_scheme(1.0 - 1e-12)))
    assert np.abs(stack.table().mass - BoostedDensity(q0).table().mass).max() < 1e-9


def test_fit_deterministic(fit_setup):
    s, p, q0 = fit_setup
    cfg = FitConfig(rounds=5, scheme=exact_scheme(0.8), seed=42)
    s1, tr1, _ = fbde_fit(p, q0, cfg)
    s2, tr2, _ = fbde_fit(p, q0, cfg)
    assert np.array_equal(s1.table().mass, s2.table().mass)
    assert [r.z for r in tr1] == [r.z for r in tr2]
    assert [r.gamma_p for r in tr1] == [r.gamma_p for r in tr2]
    s3, _, _ = fbde_fit(p, q0, FitConfig(rounds=5, scheme=exact_scheme(0.8), seed=43))
    assert not np.array_equal(s1.table().mass, s3.table().mass)


def test_fit_kl_columns(fit_setup):
    # every row records kl_train, the KL from the training data; kl_test never.
    # fbde_fit sums over p-hat's support alone, with the bits of the sum over the dense tables
    s, p, q0 = fit_setup
    stack, trace, _ = fbde_fit(p, q0, FitConfig(rounds=3, scheme=exact_scheme()))
    assert len(trace) == 4
    assert all(r.kl_test is None for r in trace)
    p_mass = fit_empirical(p, 0.0).mass
    assert 0 < np.count_nonzero(p_mass) < len(p_mass)
    for row in trace:
        assert row.kl_train == kl_divergence(p_mass, BoostedDensity(q0, stack.rounds[: row.t]).table().mass)


def test_fit_builds_one_joint_table_per_stack(fit_setup, monkeypatch):
    # every joint of one fit is written into one buffer, the fit's workspace.  Each stack's
    # table serves both its KL and, turned into its CDF in place, the next round's
    # negatives: the rows TabularDensity.sample draws from that table.  The stack the fit
    # returns holds its tilt in a buffer of its own
    s, p, q0 = fit_setup
    buffers, joints, cdfs, negatives = [], [], [], []
    joint, sample_cdf, train = BoostedDensity.joint, engine._sample_cdf, engine.train_tree

    def recording_joint(self, out):
        buffers.append(out)
        joints.append(joint(self, out).copy())
        return out

    def recording_sample_cdf(schema, cdf, n, seed):
        cdfs.append(cdf.copy())
        return sample_cdf(schema, cdf, n, seed)

    def recording_train(p_samples, q_samples, *args):
        negatives.append(q_samples.rows)
        return train(p_samples, q_samples, *args)

    monkeypatch.setattr(BoostedDensity, "joint", recording_joint)
    monkeypatch.setattr(engine, "_sample_cdf", recording_sample_cdf)
    monkeypatch.setattr(engine, "train_tree", recording_train)
    cfg = FitConfig(rounds=4, scheme=exact_scheme(), seed=7)
    stack, _, _ = fbde_fit(p, q0, cfg)
    monkeypatch.undo()
    assert len(joints) == 4 + 1 and len(cdfs) == len(negatives) == 4
    assert all(out is buffers[0] for out in buffers) and buffers[0].shape == (s.n_cells,)
    for t, rows in enumerate(negatives, start=1):
        table = BoostedDensity(q0, stack.rounds[: t - 1]).table()
        assert np.array_equal(joints[t - 1], table.mass)
        assert np.array_equal(cdfs[t - 1], np.cumsum(table.mass))  # the joint's buffer became that table's CDF
        seed = seeds.subseed(cfg.seed, seeds.NEGATIVES, t)
        assert np.array_equal(rows, table.sample(engine.NEGATIVES_PER_ROW * len(p), seed).rows)
    assert np.array_equal(joints[4], stack.table().mass)
    assert not np.shares_memory(stack._tilt, buffers[0])


def test_fit_kl_shrinks_toward_data(fit_setup):
    s, p, q0 = fit_setup
    _, trace, _ = fbde_fit(p, q0, FitConfig(rounds=8, scheme=exact_scheme(0.7)))
    assert trace[-1].kl_train < trace[0].kl_train


def test_fit_input_validation(fit_setup):
    s, p, q0 = fit_setup
    other = xa_schema(nx=3, na=2)
    with pytest.raises(ValueError, match="schema mismatch"):
        fbde_fit(Dataset(other, [[0, 0]]), q0, FitConfig(rounds=1, scheme=exact_scheme()))
    with pytest.raises(ValueError, match="empty dataset"):
        fbde_fit(Dataset(s, np.empty((0, 2))), q0, FitConfig(rounds=1, scheme=exact_scheme()))


def test_fit_refuses_a_c_bound_whose_margin_sums_overflow(fit_setup):
    # 120 rows draw 240 negatives, and C * 240 bounds every sum behind a round's margins
    s, p, q0 = fit_setup
    fbde_fit(p, q0, FitConfig(rounds=2, scheme=LeveragingScheme(EXACT, 0.9, 1e305)))
    with pytest.raises(ValueError, match=r"^c_bound 1e\+307 times 240 negatives overflows the round margins' sums$"):
        fbde_fit(p, q0, FitConfig(rounds=2, scheme=LeveragingScheme(EXACT, 0.9, 1e307)))


def test_fit_continues_through_wla_failure(fit_setup):
    s, p, q0 = fit_setup
    # min_leaf too large to ever split: the tree abstains, margins are 0,
    # and the loop keeps going with zero trees
    cfg = FitConfig(rounds=5, scheme=exact_scheme(), tree=TreeConfig(min_leaf_count=10_000))
    stack, trace, _ = fbde_fit(p, q0, cfg)
    assert len(stack.rounds) == 5
    assert all(r.regime == FAIL for r in trace[1:])
    assert stack.representation_rate() == pytest.approx(1.0, abs=1e-12)
