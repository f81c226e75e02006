"""Certificate calculators: per-round drops, total progress, fairness transfer."""

import dataclasses
import json
import math

import numpy as np
import pytest

from fairboost import (
    BoostedDensity,
    BoostRound,
    Dataset,
    FitConfig,
    InitialDensity,
    LeveragingScheme,
    TabularDensity,
    build_report,
    delta_bounds,
    dc_from_rr,
    fbde_fit,
    fit_empirical,
    kl_divergence,
    kl_drop_bound,
    rr_lower_bound,
    sr_from_rr,
    verify_eo,
)
from fairboost.boosted import representation_rates
from fairboost.engine import EXACT, TraceRow
from fairboost.guarantees import DeltaBounds, eo_fnr_bound, exact_round_margins, gain_ratio, margin_gain
from fairboost.tree import HBS, LBS, boosting_regime

from conftest import (
    LN2,
    density,
    extend,
    random_density,
    random_initial,
    table_classifier,
    uniform_initial,
    wla,
    xa_schema,
    xya_schema,
)


def exact_scheme(tau):
    return LeveragingScheme(kind="exact", tau=tau)


# -- margin gain --------------------------------------------------------


def test_margin_gain_landmarks():
    assert margin_gain(1.0 / 3.0) == pytest.approx(0.0, abs=1e-15)
    assert margin_gain(1.0) == pytest.approx(LN2, abs=1e-15)
    assert margin_gain(0.5) == pytest.approx(math.log(8.0 / 7.0), abs=1e-15)
    assert margin_gain(0.0) < 0.0  # no model-side margin, no shrink
    with pytest.raises(ValueError, match="margin must be at most 1"):
        margin_gain(1.1)


def test_gain_ratio_landmarks():
    assert gain_ratio(1.0) == 1.0
    assert gain_ratio(1.0 / 3.0) == pytest.approx(0.0, abs=1e-15)
    assert 0.0 < gain_ratio(0.6) < 1.0
    with pytest.raises(ValueError, match="margin must be positive"):
        gain_ratio(0.0)


# -- per-round drop -----------------------------------------------------


def test_kl_drop_high_regime_values():
    db = kl_drop_bound(0.5, 1.0, 1.0)
    assert db.regime == HBS
    assert db.slope == pytest.approx(2 * LN2, abs=1e-15)
    assert db.bound == pytest.approx(LN2, abs=1e-15)
    assert db.positive
    # boundary: the model-side term vanishes
    db = kl_drop_bound(0.1, 0.4, 1.0 / 3.0)
    assert db.regime == HBS
    assert db.slope == pytest.approx(0.4 * LN2, abs=1e-12)


def test_kl_drop_low_regime_values():
    db = kl_drop_bound(0.1, 0.3, 0.2)
    assert db.regime == LBS
    assert db.slope == pytest.approx(0.3 + 0.2 - LN2 * 0.05, abs=1e-15)
    assert db.positive
    # coefficient large enough to eat the whole margin: floor goes negative
    db = kl_drop_bound(1.0, 0.01, 0.01)
    assert db.regime == LBS
    assert not db.positive


def test_kl_drop_validation():
    with pytest.raises(ValueError, match="theta must be > 0"):
        kl_drop_bound(0.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="WLA violated"):
        kl_drop_bound(0.1, -0.2, 0.5)
    with pytest.raises(ValueError, match="WLA violated"):
        kl_drop_bound(0.1, 0.5, 0.0)
    with pytest.raises(ValueError, match="margins exceed 1"):
        kl_drop_bound(0.1, 1.2, 0.5)


def test_kl_drop_floor_against_measured_drops(rng):
    """The high-regime certificate must hold under brute-force measurement.

    Random strictly positive data tables and anchors, sign classifiers, and
    scheme-sized coefficients; margins are computed exactly, then the
    measured drop KL(P,Q_prev) - KL(P,Q_next) is compared to theta * slope.
    The low-regime floor is stated in mixed units and is reported rather
    than certified, so only its sign condition is sanity-checked here.
    """
    s = xa_schema(nx=2, na=2)
    checked_hbs = 0
    for trial in range(200):
        if trial % 2 == 0:
            # free draw: usually lands in the low regime
            prev = BoostedDensity(random_initial(s, rng))
            p_hat = random_density(s, rng)
        else:
            # anchor mass pushed onto the -C cell, data mass onto the +C cell,
            # so the model margin clears the high-regime threshold
            u = rng.uniform(0.02, 0.30, size=2)
            prev = BoostedDensity(
                InitialDensity(s, np.column_stack([u, 1.0 - u]))
            )
            w = float(rng.uniform(0.7, 0.98))
            split = rng.dirichlet(np.ones(2) * 5, size=2)
            p_hat = density(s, np.concatenate([w * split[0], (1 - w) * split[1]]))
        clf = table_classifier(s, [LN2, -LN2])
        theta = float(rng.uniform(0.01, 0.12))
        gamma_p, gamma_q = exact_round_margins(p_hat, prev, clf)
        if gamma_p <= 0.0 or gamma_q <= 0.0:
            continue
        nxt = extend(prev, clf, theta)
        measured = kl_divergence(p_hat.mass, prev.table().mass) - kl_divergence(p_hat.mass, nxt.table().mass)
        db = kl_drop_bound(theta, min(gamma_p, 1.0), min(gamma_q, 1.0))
        if db.regime == HBS:
            assert measured >= db.bound - 1e-9
            checked_hbs += 1
        elif db.positive:
            # the sign condition gamma_p + gamma_q > ln2 * theta / 2 matches the
            # Hoeffding floor's, so a positive flag must mean a real drop
            assert measured > 0.0
    assert checked_hbs >= 25


def test_kl_drop_floor_constructed_high_regime():
    # data mass 5/6 on the +C cells and model mass 5/6 on the -C cells puts
    # both margins at exactly 2/3, well inside the high regime
    s = xa_schema(nx=2, na=2)
    prev = BoostedDensity(
        InitialDensity(s, np.array([[1 / 6, 5 / 6], [1 / 6, 5 / 6]]))
    )
    p_hat = density(s, [5 / 12, 5 / 12, 1 / 12, 1 / 12])
    clf = table_classifier(s, [LN2, -LN2])
    gamma_p, gamma_q = exact_round_margins(p_hat, prev, clf)
    assert gamma_p == pytest.approx(2 / 3, abs=1e-12)
    assert gamma_q == pytest.approx(2 / 3, abs=1e-12)
    for theta in (0.02, 0.05, 0.1, 0.2):
        nxt = extend(prev, clf, theta)
        measured = kl_divergence(p_hat.mass, prev.table().mass) - kl_divergence(p_hat.mass, nxt.table().mass)
        db = kl_drop_bound(theta, gamma_p, gamma_q)
        assert db.regime == HBS
        assert measured >= db.bound - 1e-9


# -- total progress -----------------------------------------------------


def test_delta_bounds_exact_two_rounds():
    tau = 0.8
    b = delta_bounds(exact_scheme(tau), 2, 1.0, 1.0)
    assert b.upper == pytest.approx(-math.log(tau), abs=1e-15)
    assert b.lower == pytest.approx(-math.log(tau) / 2.0, abs=1e-15)


def test_delta_bounds_exact_saturates():
    tau = 0.8
    b = delta_bounds(exact_scheme(tau), 200, 1.0, 1.0)
    assert b.lower <= b.upper
    assert b.upper - b.lower < 1e-15


def test_delta_bounds_relative_log_growth():
    tau = 0.9
    b = delta_bounds(LeveragingScheme(kind="relative", tau=tau), math.e, 1.0, 1.0)
    assert b.lower == pytest.approx(-math.log(tau), rel=1e-12)
    assert b.upper == pytest.approx(-2.0 * math.log(tau), rel=1e-12)


def test_delta_bounds_validation():
    with pytest.raises(ValueError, match="rounds must exceed 1"):
        delta_bounds(exact_scheme(0.8), 1, 1.0, 1.0)
    # tau = 1 cannot reach delta_bounds: the scheme rejects it
    with pytest.raises(ValueError, match="tau must be in \\(0, 1\\)"):
        exact_scheme(1.0)
    with pytest.raises(ValueError, match="tau must exceed exp\\(-1\\)"):
        delta_bounds(exact_scheme(0.3), 3, 1.0, 1.0)
    with pytest.raises(ValueError, match="WLA violated"):
        delta_bounds(exact_scheme(0.8), 3, 0.0, 1.0)
    with pytest.raises(ValueError, match="margins exceed 1"):
        delta_bounds(exact_scheme(0.8), 3, 1.0, 1.5)
    with pytest.raises(ValueError, match="high boosting regime required"):
        delta_bounds(exact_scheme(0.8), 3, 1.0, 0.2)
    with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
        DeltaBounds(lower=2.0, upper=1.0)


# -- fairness transfer --------------------------------------------------


def test_eo_fnr_budget_values():
    assert eo_fnr_bound(0.9, 0.8) == pytest.approx(0.1 / 1.9, abs=1e-15)
    assert eo_fnr_bound(0.9, 0.9) == 0.0
    assert eo_fnr_bound(1.0, 0.0) == 0.5
    with pytest.raises(ValueError, match="rho must not exceed tau"):
        eo_fnr_bound(0.5, 0.6)
    with pytest.raises(ValueError, match="rho must be >= 0"):
        eo_fnr_bound(0.5, -0.1)
    with pytest.raises(ValueError, match="tau must be at most 1"):
        eo_fnr_bound(1.2, 0.1)


def test_verify_eo_perfect_predictor(rng):
    s = xya_schema(nx=3)
    d = random_density(s, rng)
    report = verify_eo(d, lambda cells: cells[:, 1], rho=0.8)
    assert report.fnr == pytest.approx(0.0, abs=1e-15)
    assert report.eo_ratio == pytest.approx(1.0, abs=1e-12)
    assert report.eo_holds
    assert report.implication_held


def test_verify_eo_constant_positive_predictor(rng):
    s = xya_schema(nx=2)
    d = random_density(s, rng)
    report = verify_eo(d, lambda cells: np.ones(len(cells), dtype=int), rho=0.9)
    assert report.fnr == 0.0
    assert report.eo_ratio == 1.0
    assert report.implication_held


def test_verify_eo_tau_reads_positive_slice_only():
    s = xya_schema(nx=1)
    # overall group marginal is balanced, the positive slice is 3:1
    d = density(s, [0.2, 0.4, 0.3, 0.1])
    report = verify_eo(d, lambda cells: cells[:, 1], rho=0.2)
    assert report.tau == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report.fnr_limit == pytest.approx(eo_fnr_bound(1.0 / 3.0, 0.2), abs=1e-15)


def test_verify_eo_premise_fails_gracefully():
    s = xya_schema(nx=2)
    d = density(s, [1.0] * 8)
    # predict positive on x=1 only: misses half the positives in each group
    pred = lambda cells: (cells[:, 0] == 1).astype(int)
    report = verify_eo(d, pred, rho=0.5)
    assert report.fnr == pytest.approx(0.5, abs=1e-12)
    assert report.tau == pytest.approx(1.0, abs=1e-12)
    assert not report.premises_hold  # budget at tau=1 is (1-0.5)/2 = 0.25
    assert report.implication_held  # vacuously


def test_verify_eo_rho_above_tau_disables_premise():
    s = xya_schema(nx=1)
    d = density(s, [0.2, 0.4, 0.3, 0.1])  # tau = 1/3
    report = verify_eo(d, lambda cells: cells[:, 1], rho=0.9)
    assert report.fnr_limit is None
    assert not report.premises_hold
    assert report.implication_held


def test_verify_eo_implication_brute_force(rng):
    """The lemma itself: whenever the premises hold, rho-EO must hold."""
    s = xya_schema(nx=2)
    held_with_premises = 0
    for _ in range(300):
        d = random_density(s, rng, floor=0.02)
        table = rng.integers(0, 2, size=s.n_cells)
        rho = float(rng.uniform(0.0, 1.0))
        try:
            report = verify_eo(d, lambda cells: table[s.encode(cells)], rho)
        except ValueError:
            continue  # all-negative predictions in a group
        assert report.implication_held
        if report.premises_hold:
            held_with_premises += 1
            assert report.eo_holds
    assert held_with_premises >= 10


def test_verify_eo_validation(rng):
    s3 = xya_schema(na=3)
    with pytest.raises(ValueError, match="binary sensitive attribute required"):
        verify_eo(random_density(s3, rng), lambda c: np.ones(len(c), dtype=int), 0.5)
    s = xya_schema()
    d = random_density(s, rng)
    with pytest.raises(ValueError, match="rho must be in \\[0, 1\\]"):
        verify_eo(d, lambda c: np.ones(len(c), dtype=int), 1.5)
    with pytest.raises(ValueError, match="predictor must output one 0/1 value per cell"):
        verify_eo(d, lambda c: np.full(len(c), 2), 0.5)
    with pytest.raises(ValueError, match="predictor must output one 0/1 value per cell"):
        verify_eo(d, lambda c: np.ones(len(c) - 1, dtype=int), 0.5)
    plain = xa_schema()
    with pytest.raises(ValueError, match="sensitive and target"):
        verify_eo(random_density(plain, rng), lambda c: np.ones(len(c), dtype=int), 0.5)


def test_sr_dc_from_rr():
    assert sr_from_rr(0.9) == pytest.approx(0.81, abs=1e-15)
    assert dc_from_rr(0.9) == pytest.approx(0.19 / 0.81, abs=1e-15)
    assert sr_from_rr(1.0) == 1.0
    assert dc_from_rr(1.0) == 0.0
    # ceiling is the floor's reciprocal complement
    for tau in (0.55, 0.7, 0.95):
        assert dc_from_rr(tau) == pytest.approx(1.0 / sr_from_rr(tau) - 1.0, rel=1e-12)
    with pytest.raises(ValueError, match="tau must be in \\(0, 1\\]"):
        sr_from_rr(0.0)
    with pytest.raises(ValueError, match="tau must be in \\(0, 1\\]"):
        dc_from_rr(1.2)


# -- exact margins ------------------------------------------------------


def test_exact_round_margins_hand_value():
    s = xa_schema(nx=2, na=2)
    prev = BoostedDensity(uniform_initial(s))
    clf = table_classifier(s, [LN2, -LN2])
    p_hat = density(s, [0.4, 0.4, 0.1, 0.1])
    gamma_p, gamma_q = exact_round_margins(p_hat, prev, clf)
    assert gamma_p == pytest.approx(0.6, abs=1e-12)
    assert gamma_q == pytest.approx(0.0, abs=1e-12)


def test_exact_round_margins_match_weighted_sample(rng):
    s = xa_schema(nx=3, na=2)
    prev = BoostedDensity(random_initial(s, rng))
    clf = table_classifier(s, rng.uniform(-LN2, LN2, size=3))
    # every cell repeated a random number of times: the sample's mean is
    # the expectation under its empirical table
    ds = Dataset(s, np.repeat(s.all_cells(), rng.integers(1, 20, size=s.n_cells), axis=0))
    p_hat = fit_empirical(ds, 0.0)
    gamma_p, _ = exact_round_margins(p_hat, prev, clf)
    est = wla(clf, ds, ds)
    assert est.gamma_p == pytest.approx(gamma_p, abs=1e-12)


def test_exact_round_margins_schema_mismatch(rng):
    s = xa_schema(nx=2, na=2)
    other = xa_schema(nx=3, na=2)
    prev = BoostedDensity(uniform_initial(s))
    with pytest.raises(ValueError, match="schema mismatch"):
        exact_round_margins(random_density(other, rng), prev, table_classifier(s, [LN2, -LN2]))


# -- full-report assembly ----------------------------------------------


def fitted_trace(tau=0.8, rounds=5):
    s = xa_schema(nx=4, na=2)
    rows = []
    for x, a, n in ((0, 0, 50), (1, 0, 40), (2, 1, 20), (3, 1, 10)):
        rows.extend([[x, a]] * n)
    p = Dataset(s, np.asarray(rows, dtype=np.int64))
    scheme = exact_scheme(tau)
    cfg = FitConfig(rounds=rounds, scheme=scheme)
    stack, trace, _ = fbde_fit(p, uniform_initial(s), cfg)
    return stack, trace, scheme


def test_build_report_structure():
    stack, trace, scheme = fitted_trace()
    report = build_report(trace, scheme, stack.rounds)
    assert report.scheme == EXACT
    assert report.rounds == 5
    assert len(report.fairness_rounds) == 5
    assert report.all_fairness_hold
    for f in report.fairness_rounds:
        assert f["holds"]
        assert f["rr"] >= f["rr_floor"] - 1e-9
    assert len(report.drop_rounds) == 5
    for entry in report.drop_rounds:
        assert entry["measured_drop"] is not None
    assert report.delta is not None
    assert report.delta["measured"] == pytest.approx(
        trace[0].kl_train - trace[-1].kl_train, abs=1e-12
    )
    assert report.delta["upper"] == pytest.approx(-math.log(0.8), abs=1e-12)
    assert report.delta["upper_holds"]
    assert report.implied["final_rr"] == stack.representation_rate()
    assert report.implied["sr_floor"] == pytest.approx(report.implied["final_rr"] ** 2, rel=1e-12)
    budgets = report.implied["eo_budgets"]
    assert all(b["rho"] <= report.implied["final_rr"] for b in budgets)
    json.dumps(dataclasses.asdict(report))  # must serialize cleanly


def hand_run(scheme, margins, kl):
    """A trace and the model rounds it records: round t has theta 0.1 / t,
    sample margins margins[t - 1] and kl_train kl[t], and its rate and rate
    floor are the ones build_report derives from the rounds and the scheme."""
    clf = table_classifier(xa_schema(), [LN2, -LN2])
    rounds = [
        BoostRound(0.1 / t, clf, 1.0 + 0.01 / t, np.array([1.0, 1.0 + 0.05 / t]))
        for t in range(1, len(margins) + 1)
    ]
    rates = representation_rates(r.z_by_group for r in rounds)
    trace = [TraceRow(0, 0.0, None, None, None, 1.0, 1.0, kl[0], None, 1.0)]
    for t, (rnd, (gp, gq)) in enumerate(zip(rounds, margins), start=1):
        regime = boosting_regime(gp, gq)
        trace.append(TraceRow(t, rnd.theta, gp, gq, regime, rates[t], rr_lower_bound(scheme, t), kl[t], None, rnd.z))
    return trace, rounds


def test_build_report_certifies_drops_only_at_c_ln2():
    # two high-regime rounds: at C = ln 2 both drop floors and the lower
    # bound on Delta are certified; at any other C none of them is
    trace, rounds = hand_run(exact_scheme(0.8), [(0.5, 0.5), (0.4, 0.4)], kl=(0.5, 0.45, 0.42))
    certified = build_report(trace, LeveragingScheme(kind="exact", tau=0.8), rounds)
    for entry in certified.drop_rounds:
        assert entry["drop_floor"] is not None and entry["holds"] is not None
        assert "floor_note" not in entry
    assert certified.delta["lower"] is not None

    other = build_report(trace, LeveragingScheme(kind="exact", tau=0.8, c_bound=1.5), rounds)
    for entry in other.drop_rounds:
        assert entry["drop_floor"] is None
        assert entry["floor_positive"] is None
        assert entry["holds"] is None
        assert "C = ln 2" in entry["floor_note"]
    assert other.delta["lower"] is None
    assert "C = ln 2" in other.delta["lower_note"]
    # the rate floors and the progress upper bound do not depend on C
    assert other.fairness_rounds == certified.fairness_rounds
    assert other.delta["upper_holds"] == certified.delta["upper_holds"]


def test_build_report_clamps_each_margin_once():
    # a sample margin that rounded above 1 is read as 1 by its drop floor
    # and by the lower bound on Delta alike; the report shows it as sampled
    above = math.nextafter(1.0, 2.0)
    scheme = exact_scheme(0.8)
    trace, rounds = hand_run(scheme, [(above, 0.5), (above, above)], kl=(0.5, 0.45, 0.42))
    report = build_report(trace, scheme, rounds)
    assert [e["regime"] for e in report.drop_rounds] == [HBS, HBS]
    assert [e["drop_floor"] for e in report.drop_rounds] == [
        kl_drop_bound(0.1, 1.0, 0.5).bound,
        kl_drop_bound(0.05, 1.0, 1.0).bound,
    ]
    assert [(e["gamma_p"], e["gamma_q"]) for e in report.drop_rounds] == [(above, 0.5), (above, above)]
    # the smallest gamma_p is above 1 too: the bound is taken at 1
    assert report.delta["lower"] == delta_bounds(scheme, 2, 1.0, 0.5).lower


def test_build_report_empty_trace():
    # a zero-round report comes from the one anchor row; a trace without it is no run's
    trace, rounds = hand_run(exact_scheme(0.8), [], kl=(0.5,))
    report = build_report(trace, exact_scheme(0.8), rounds)
    assert report.rounds == 0
    assert report.fairness_rounds == ()
    assert report.delta is None
    assert report.implied["final_rr"] == 1.0
    assert report.all_fairness_hold
    with pytest.raises(ValueError, match="^the trace does not open with its t=0 anchor row; the trace is not"):
        build_report([], exact_scheme(0.8), [])


def test_build_report_refuses_a_trace_without_its_anchor_row():
    trace, rounds = hand_run(exact_scheme(0.8), [(0.5, 0.5), (0.4, 0.4)], kl=(0.5, 0.45, 0.42))
    with pytest.raises(ValueError, match="^the trace does not open with its t=0 anchor row"):
        build_report(trace[1:], exact_scheme(0.8), rounds[1:])


@pytest.mark.parametrize("column", ["theta", "z", "rr", "rr_bound"])
def test_build_report_names_the_first_column_the_model_does_not_give(column):
    # one comparison per round: the trace's copy of each value the model fixes, named when it differs
    scheme = exact_scheme(0.8)
    trace, rounds = hand_run(scheme, [(0.5, 0.5), (0.4, 0.4)], kl=(0.5, 0.45, 0.42))
    row = trace[2]
    edited = math.nextafter(getattr(row, column), 0.0)
    trace[2] = dataclasses.replace(row, **{column: edited})
    with pytest.raises(ValueError) as info:
        build_report(trace, scheme, rounds)
    assert str(info.value) == (
        f"trace round 2: {column} {edited!r} differs from the model's {getattr(row, column)!r}; "
        "the trace is not this model's"
    )


def test_trace_row_refuses_a_round_without_margins():
    # the rule is the row's: a round without margins is never built, so build_report never meets one
    with pytest.raises(ValueError, match="^gamma_p is empty$"):
        TraceRow(1, 0.1, None, None, None, 1.0, 0.8, 0.4, None, 1.0)
