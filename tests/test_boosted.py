"""Boosted density stack: normalizers, marginal recursion, expectations, sampling."""

import math

import numpy as np
import pytest

from fairboost import (
    Attribute,
    AttributeSchema,
    BoostedDensity,
    BoostRound,
    InitialDensity,
    kl_divergence,
    representation_rate,
)

from fairboost.boosted import _logsumexp

from conftest import (
    LN2,
    extend,
    group_matrix,
    random_initial,
    random_stack,
    table_classifier,
    uniform_initial,
    xa_schema,
)


def degenerate_initial(schema):
    # q0(.|a0) all mass on x0, q0(.|a1) all mass on x1
    return InitialDensity(schema, np.array([[1.0, 0.0], [0.0, 1.0]]))


def plusminus_classifier(schema):
    return table_classifier(schema, [LN2, -LN2])


def density_at(bd, row):
    """Q_T at one coordinate row, read off the stack's joint table."""
    return bd.table().mass[bd.schema.encode(np.asarray([row]))[0]]


def normalizers(bd, classifier, theta):
    """(Z, Z(a)) of the round that appending this classifier would add."""
    rnd = extend(bd, classifier, theta).rounds[-1]
    return rnd.z, rnd.z_by_group


# -- TableClassifier ----------------------------------------------------


def test_table_classifier_scores():
    s = xa_schema(nx=3)
    clf = table_classifier(s, [0.1, -0.2, 0.3], c_bound=0.5)
    x_rows = s.x_subschema().all_cells()
    assert np.allclose(clf.scores(x_rows), [0.1, -0.2, 0.3])
    # single-row lookup goes through the same table
    assert clf.scores(np.array([[2]]))[0] == pytest.approx(0.3)


def test_table_classifier_validation():
    s = xa_schema(nx=3)
    with pytest.raises(ValueError, match="values must cover every feature cell"):
        table_classifier(s, [0.1, 0.2])
    with pytest.raises(ValueError, match="classifier unbounded"):
        table_classifier(s, [0.1, np.inf, 0.0])
    with pytest.raises(ValueError, match="values exceed c_bound"):
        table_classifier(s, [0.1, 0.2, 0.9], c_bound=0.5)
    # the bound itself is allowed
    table_classifier(s, [0.5, -0.5, 0.0], c_bound=0.5)


# -- InitialDensity -----------------------------------------------------


def test_anchor_marginal_is_exactly_uniform(rng):
    s = xa_schema(nx=5, na=3)
    q0 = random_initial(s, rng)
    bd = BoostedDensity(q0)
    assert np.array_equal(bd.sensitive_marginal(), np.full(3, 1.0 / 3.0))
    assert bd.representation_rate() == 1.0


def test_anchor_joint_matches_conditionals(rng):
    s = xa_schema(nx=4, na=2)
    q0 = random_initial(s, rng)
    joint = BoostedDensity(q0).table()
    for a in range(2):
        for x in range(4):
            cell = joint.schema.encode(np.array([[x, a]]))[0]
            assert joint.mass[cell] == pytest.approx(0.5 * q0.cond[a, x], abs=1e-15)


def test_initial_density_validation():
    s = xa_schema(nx=2, na=2)
    good = np.array([[0.5, 0.5], [0.25, 0.75]])
    assert np.array_equal(InitialDensity(s, good).cond, good)
    shape = r"conditionals must be a 2 x 2 matrix"
    with pytest.raises(ValueError, match=shape + r", got shape \(1, 2\)"):
        InitialDensity(s, good[:1])
    with pytest.raises(ValueError, match=shape + r", got shape \(3, 2\)"):
        InitialDensity(s, np.vstack([good, good[:1]]))
    with pytest.raises(ValueError, match=shape + r", got shape \(2, 3\)"):
        InitialDensity(s, np.full((2, 3), 1.0 / 3.0))
    with pytest.raises(ValueError, match=shape + r", got shape \(4,\)"):
        InitialDensity(s, good.reshape(-1))
    for entry in (np.nan, np.inf, -0.25):
        bad = good.copy()
        bad[1, 0] = entry
        with pytest.raises(ValueError, match="conditional entries must be finite and >= 0"):
            InitialDensity(s, bad)
    for drift in (1e-6, -1e-6, 1e-11):
        bad = good.copy()
        bad[0, 1] += drift
        with pytest.raises(ValueError, match="each conditional must sum to 1 within 1e-12"):
            InitialDensity(s, bad)
    plain = s.x_subschema()  # no sensitive attribute at all
    with pytest.raises(ValueError, match="sensitive attribute"):
        InitialDensity(plain, good)
    only_a = AttributeSchema((Attribute("a", 2),), sensitive_index=0)  # nothing to model
    with pytest.raises(ValueError, match="at least one attribute besides the sensitive one"):
        InitialDensity(only_a, np.ones((2, 1)))


# -- normalizers --------------------------------------------------------


def test_normalizers_identity_classifier(rng):
    s = xa_schema(nx=4, na=3)
    bd = BoostedDensity(random_initial(s, rng))
    z, zg = normalizers(bd, table_classifier(s, np.zeros(4)), theta=0.7)
    assert z == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(zg, 1.0, atol=1e-12)


def test_logsumexp_pinned_bits():
    # bit patterns of scipy.special.logsumexp 1.17 on the same inputs: the
    # normalizers stored in a model depend on its exact summation order.  The
    # normalizer pass reduces one group's row at a time, so each row of a 2-D
    # input is one call, pinned to scipy's logsumexp(rows, axis=1)
    k = np.arange(1000)
    ramp = (k * 7919 % 250) / 37.0 - 13.0  # the maximum is tied four times
    rows = np.stack([ramp, ramp[::-1] * 0.5])
    rows[:, ::7] = -np.inf
    five = np.stack([np.sin(k) * 40.0, np.cos(k * 0.37) * 9.0 - 3.0, ramp * 3.0, -2.0 * ramp, np.full(1000, -1.25)])
    five[::2, ::5] = -np.inf
    cases = [
        ([ramp], [0xBFF42BFC3A689584]),
        (rows, [0xBFF6A51F1A46DC64, 0x4003037074709A64]),
        ([rows.ravel()], [0x4003311C2496E5C8]),
        (np.full((2, 5), -1.25), [0x3FD70107DFB634CC] * 2),  # every entry a maximum
        ([np.array([3.5])], [0x400C000000000000]),
        (five, [0x4045F7B0CE6ED4A4, 0x4025CDE8B2D1EBAA, 0xC02E1D3005209410, 0x403E54BA62DC1F84, 0x4015BD0ADB532ACF]),
    ]
    for vectors, bits in cases:
        out = [_logsumexp(v.copy()) for v in vectors]  # a fresh array: _logsumexp overwrites its input
        assert all(type(v) is float for v in out)
        assert np.array(out).view(np.uint64).tolist() == bits

def test_normalizers_four_cell_example():
    s = xa_schema()
    bd = BoostedDensity(uniform_initial(s))
    z, zg = normalizers(bd, plusminus_classifier(s), theta=1.0)
    # e^{ln 2} = 2 and e^{-ln 2} = 1/2, each with anchor weight 1/2
    assert z == pytest.approx(1.25, abs=1e-12)
    assert np.allclose(zg, [1.25, 1.25], atol=1e-12)


def test_normalizers_degenerate_conditionals():
    s = xa_schema()
    bd = BoostedDensity(degenerate_initial(s))
    z, zg = normalizers(bd, plusminus_classifier(s), theta=1.0)
    assert zg[0] == pytest.approx(2.0, abs=1e-12)
    assert zg[1] == pytest.approx(0.5, abs=1e-12)
    assert z == pytest.approx(1.25, abs=1e-12)


def test_normalizers_respect_marginal_recursion(rng):
    # Z_t = Sum_a q_{t-1}(a) Z_t(a) must use the *current* marginal
    s = xa_schema(nx=3, na=2)
    bd = random_stack(s, rng, rounds=4)
    clf = table_classifier(s, rng.uniform(-LN2, LN2, size=3))
    z, zg = normalizers(bd, clf, theta=0.4)
    assert z == pytest.approx(float(bd.sensitive_marginal() @ zg), rel=1e-10)


def test_unbounded_scores_rejected(rng):
    s = xa_schema()
    bd = BoostedDensity(uniform_initial(s))

    class Wild:
        def domain_scores(self, x_schema):
            return np.array([np.inf, 0.0])

    # a round's one paint is checked before the stack takes it
    with pytest.raises(ValueError, match="classifier unbounded"):
        extend(bd, Wild(), 1.0)
    # a stack rebuilt from stored rounds scores each classifier again
    with pytest.raises(ValueError, match="classifier unbounded"):
        BoostedDensity(bd.q0, [BoostRound(1.0, Wild(), 1.0, np.array([1.0, 1.0]))])


def test_boost_round_requires_positive_normalizers():
    s = xa_schema()
    clf = plusminus_classifier(s)
    with pytest.raises(ValueError, match="normalizers must be > 0"):
        BoostRound(1.0, clf, 0.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="normalizers must be > 0"):
        BoostRound(1.0, clf, 1.0, np.array([1.0, -0.1]))


@pytest.mark.parametrize(
    "theta, z, z_by_group",
    [
        (np.inf, 1.0, [1.0, 1.0]),
        (np.nan, 1.0, [1.0, 1.0]),
        (1.0, np.inf, [1.0, 1.0]),
        (1.0, np.nan, [1.0, 1.0]),
        (1.0, 1.0, [np.nan, 1.0]),
        (1.0, 1.0, [1.0, np.inf]),
    ],
)
def test_boost_round_requires_finite_values(theta, z, z_by_group):
    clf = plusminus_classifier(xa_schema())
    with pytest.raises(ValueError, match="theta and normalizers must be finite"):
        BoostRound(theta, clf, z, np.array(z_by_group))


# -- density evaluation -------------------------------------------------


def test_density_at_zero_rounds_is_anchor(rng):
    s = xa_schema(nx=3, na=2)
    q0 = random_initial(s, rng)
    bd = BoostedDensity(q0)
    for x, a in s.all_cells():
        assert density_at(bd, [x, a]) == pytest.approx(q0.cond[a, x] / 2, abs=1e-15)


def test_density_at_four_cell_example():
    s = xa_schema()
    bd = extend(BoostedDensity(uniform_initial(s)), plusminus_classifier(s), 1.0)
    # 0.25 * 2 / 1.25 = 0.4 on x0 cells, 0.25 * 0.5 / 1.25 = 0.1 on x1 cells
    assert density_at(bd, [0, 0]) == pytest.approx(0.4, abs=1e-12)
    assert density_at(bd, [0, 1]) == pytest.approx(0.4, abs=1e-12)
    assert density_at(bd, [1, 0]) == pytest.approx(0.1, abs=1e-12)
    assert density_at(bd, [1, 1]) == pytest.approx(0.1, abs=1e-12)


def test_zero_theta_rounds_change_nothing(rng):
    s = xa_schema(nx=4, na=3)
    q0 = random_initial(s, rng)
    bd = BoostedDensity(q0)
    for _ in range(3):
        bd = extend(bd, table_classifier(s, rng.uniform(-LN2, LN2, size=4)), 0.0)
    assert np.allclose(bd.table().mass, BoostedDensity(q0).table().mass, atol=1e-12)
    assert bd.representation_rate() == pytest.approx(1.0, abs=1e-12)


def test_total_mass_stays_one_after_many_rounds(rng):
    s = xa_schema(nx=6, na=3)
    bd = random_stack(s, rng, rounds=50)
    # the unrolled product, summed over the domain with the stored normalizers
    assert bd.expectation(lambda rows: np.ones(len(rows))).value == pytest.approx(1.0, abs=1e-9)
    assert bd.table().mass.sum() == pytest.approx(1.0, abs=1e-15)


def test_conditional_tables_sum_to_one(rng):
    # each group's slice of the joint table over the normalizer-recursion
    # marginal is a distribution q_T(x | A=a)
    s = xa_schema(nx=5, na=3)
    bd = random_stack(s, rng, rounds=8)
    groups = group_matrix(s, bd.table().mass)
    for a in range(3):
        assert (groups[a] / bd.sensitive_marginal()[a]).sum() == pytest.approx(1.0, abs=1e-10)


# -- marginal recursion and representation rate ------------------------


def test_marginal_recursion_degenerate_example():
    s = xa_schema()
    bd = extend(BoostedDensity(degenerate_initial(s)), plusminus_classifier(s), 1.0)
    # q1(a) = (1/2) * Z(a)/Z: (0.5*2/1.25, 0.5*0.5/1.25)
    assert np.allclose(bd.sensitive_marginal(), [0.8, 0.2], atol=1e-12)
    assert bd.representation_rate() == pytest.approx(0.25, abs=1e-12)


def test_marginal_matches_joint_table(rng):
    s = xa_schema(nx=4, na=3)
    bd = random_stack(s, rng, rounds=6)
    from_table = bd.table().sensitive_marginal()
    assert np.allclose(bd.sensitive_marginal(), from_table, atol=1e-10)
    assert bd.sensitive_marginal().sum() == pytest.approx(1.0, abs=1e-12)


def test_rr_from_normalizers_matches_table(rng):
    s = xa_schema(nx=3, na=4)
    for _ in range(5):
        bd = random_stack(s, rng, rounds=5)
        assert bd.representation_rate() == pytest.approx(
            representation_rate(bd.table()), abs=1e-10
        )


def test_shared_conditionals_keep_marginal_uniform(rng):
    # identical conditionals across groups make every Z(a) equal, so the
    # marginal never moves no matter what gets boosted
    s = xa_schema(nx=5, na=3)
    row = rng.random(5) + 0.1
    row /= row.sum()
    q0 = InitialDensity(s, np.tile(row, (3, 1)))
    bd = random_stack(s, rng, rounds=7, q0=q0)
    assert np.allclose(bd.sensitive_marginal(), 1.0 / 3.0, atol=1e-12)
    assert bd.representation_rate() == pytest.approx(1.0, abs=1e-12)


# -- expectations -------------------------------------------------------


def test_expectation_of_one_is_one(rng):
    s = xa_schema(nx=4, na=2)
    bd = random_stack(s, rng, rounds=5)
    est = bd.expectation(lambda rows: np.ones(len(rows)))
    assert est.value == pytest.approx(1.0, abs=1e-10)
    assert est.stderr == 0.0


def test_expectation_indicator_matches_density(rng):
    s = xa_schema(nx=3, na=2)
    bd = random_stack(s, rng, rounds=4)
    for row in s.all_cells():
        target = row.copy()
        est = bd.expectation(lambda rows: (rows == target).all(axis=1).astype(float))
        assert est.value == pytest.approx(density_at(bd, target), abs=1e-12)


def test_expectation_four_cell_example():
    s = xa_schema()
    bd = extend(BoostedDensity(uniform_initial(s)), plusminus_classifier(s), 1.0)
    est = bd.expectation(lambda rows: (rows[:, 0] == 0).astype(float))
    assert est.value == pytest.approx(0.8, abs=1e-12)


def test_monte_carlo_expectation_unbiased(rng):
    s = xa_schema(nx=4, na=3)
    bd = random_stack(s, rng, rounds=5)
    g = lambda rows: (rows[:, 0] + 2 * rows[:, 1]).astype(float)
    exact = bd.expectation(g).value
    mc = bd.expectation(g, sample_budget=20000, seed=11)
    assert mc.n == 20000
    assert mc.stderr > 0.0
    assert abs(mc.value - exact) <= 3.0 * mc.stderr + 1e-9
    again = bd.expectation(g, sample_budget=20000, seed=11)
    assert again.value == mc.value


def test_expectation_budget_validation(rng):
    s = xa_schema()
    bd = BoostedDensity(uniform_initial(s))
    with pytest.raises(ValueError, match="sample_budget must be >= 2"):
        bd.expectation(lambda rows: np.ones(len(rows)), sample_budget=1)


def test_expectation_rejects_misshapen_g():
    s = xa_schema()
    bd = BoostedDensity(uniform_initial(s))
    for g in (lambda rows: 1.0, lambda rows: np.ones((len(rows), 1)), lambda rows: np.ones(len(rows) + 1)):
        with pytest.raises(ValueError, match="g must return one value per row"):
            bd.expectation(g)
        with pytest.raises(ValueError, match="g must return one value per row"):
            bd.expectation(g, sample_budget=10)


def test_conditional_expectation_agrees_with_table(rng):
    # E[g | A=a] as E[g * 1{A=a}] over the normalizer-recursion marginal
    # matches the conditional read off the joint table
    s = xa_schema(nx=4, na=3)
    bd = random_stack(s, rng, rounds=6)
    groups = group_matrix(s, bd.table().mass)
    g_x = (s.x_subschema().all_cells()[:, 0] ** 2).astype(float)
    for a in range(3):
        want = float(groups[a] @ g_x) / groups[a].sum()
        est = bd.expectation(lambda rows: (rows[:, 0] ** 2 * (rows[:, 1] == a)).astype(float))
        assert est.value / bd.sensitive_marginal()[a] == pytest.approx(want, abs=1e-10)


# -- sampling -----------------------------------------------------------


def test_sample_frequencies_match_table(rng):
    s = xa_schema()
    bd = extend(BoostedDensity(uniform_initial(s)), plusminus_classifier(s), 1.0)
    n = 100_000
    ds = bd.sample(n, seed=5)
    probs = bd.table().mass
    codes = s.encode(ds.rows)
    freq = np.bincount(codes, minlength=4) / n
    for p, f in zip(probs, freq):
        assert abs(f - p) <= 3.0 * math.sqrt(p * (1 - p) / n) + 1e-12


def test_sample_zero_rounds_draws_from_anchor(rng):
    s = xa_schema(nx=3, na=2)
    q0 = random_initial(s, rng)
    bd = BoostedDensity(q0)
    n = 60_000
    ds = bd.sample(n, seed=9)
    freq = np.bincount(s.encode(ds.rows), minlength=6) / n
    for p, f in zip(bd.table().mass, freq):
        assert abs(f - p) <= 4.0 * math.sqrt(p * (1 - p) / n) + 1e-12


def test_sample_deterministic(rng):
    s = xa_schema(nx=4, na=2)
    bd = random_stack(s, rng, rounds=3)
    a = bd.sample(500, seed=21)
    b = bd.sample(500, seed=21)
    assert np.array_equal(a.rows, b.rows)
    c = bd.sample(500, seed=22)
    assert not np.array_equal(a.rows, c.rows)
    with pytest.raises(ValueError, match="n must be >= 1"):
        bd.sample(0, seed=0)


# -- structure ----------------------------------------------------------


def test_prefix_and_extended_consistency(rng):
    s = xa_schema(nx=4, na=2)
    bd = random_stack(s, rng, rounds=6)

    def prefix(t):
        return BoostedDensity(bd.q0, bd.rounds[:t])

    assert prefix(len(bd.rounds)) is not bd
    assert np.allclose(prefix(6).table().mass, bd.table().mass, atol=1e-15)
    # the incremental tilt sums rounds in the same order as a rebuild
    assert np.array_equal(BoostedDensity(bd.q0, bd.rounds).table().mass, bd.table().mass)
    assert len(prefix(0).rounds) == 0
    # re-appending round t to prefix(t) reproduces the stored normalizers
    for t in range(6):
        rnd = bd.rounds[t]
        redo = extend(prefix(t), rnd.classifier, rnd.theta)
        new = redo.rounds[-1]
        assert new.z == pytest.approx(rnd.z, rel=1e-12)
        assert np.allclose(new.z_by_group, rnd.z_by_group, rtol=1e-12)


def test_stack_against_brute_force_table(rng):
    # unrolled product vs an explicit reweighting of the anchor table
    s = xa_schema(nx=3, na=3)
    q0 = random_initial(s, rng)
    bd = random_stack(s, rng, rounds=4, q0=q0)
    mass = BoostedDensity(q0).table().mass.copy()
    cells = s.all_cells()
    for rnd in bd.rounds:
        w = np.exp(rnd.theta * rnd.classifier.scores(s.split_rows(cells)[0]))
        mass = mass * w
        mass /= mass.sum()
    assert np.allclose(bd.table().mass, mass, atol=1e-12)


def test_kl_to_anchor_well_defined(rng):
    s = xa_schema(nx=4, na=2)
    q0 = random_initial(s, rng)
    bd = random_stack(s, rng, rounds=5, q0=q0)
    val = kl_divergence(bd.table().mass, BoostedDensity(q0).table().mass)
    assert val >= 0.0
    assert math.isfinite(val)


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).reshape(-1).view(np.uint64).tolist()


@pytest.mark.parametrize("sensitive_index", [0, 1, 2], ids=["a-first", "a-middle", "a-last"])
def test_joint_and_normalizers_match_group_major_bits(rng, sensitive_index):
    # the joint is written in place through a group-major view of its cube, and the
    # normalizers one group's row at a time; both keep the bits of the group-major
    # expressions: for the joint, exp(log q0 - log|A| + tilt - log Z) at each cell's group and feature cell.
    # extended scales the paint in place and writes the child's tilt into it, with the bits of tilt + theta * scores
    attrs = [Attribute("x0", 3), Attribute("x1", 4)]
    attrs.insert(sensitive_index, Attribute("a", 3))
    s = AttributeSchema(tuple(attrs), sensitive_index=sensitive_index)
    q0 = random_initial(s, rng)
    n_x, cells = s.x_subschema().n_cells, s.all_cells()
    x_rows, a_codes = s.split_rows(cells)
    x_cells = s.x_subschema().encode(x_rows)

    def g(rows):
        return rows[:, 0] * 0.75 - rows[:, 2] / 3.0 + rows[:, 1]

    bd = BoostedDensity(q0)
    tilt, log_z, log_zg = np.zeros(n_x), 0.0, np.zeros(3)
    for _ in range(4):
        raw = np.exp(np.log(q0.cond) - math.log(3) + tilt[None, :] - log_z)[a_codes, x_cells]
        assert _bits(bd.table().mass) == _bits(raw / raw.sum())
        assert _bits(bd.expectation(g, "exact").value) == _bits(float(raw @ g(cells)))

        scores, theta = rng.uniform(-LN2, LN2, size=n_x), float(rng.uniform(0.0, 0.5))
        log_terms = np.log(q0.cond) + tilt[None, :] - log_zg[:, None] + theta * scores[None, :]
        ref_log_zg = np.array([_logsumexp(row) for row in log_terms])
        ref_log_z = _logsumexp(np.log(np.exp(log_zg - log_z) / 3) + ref_log_zg)
        paint = scores.copy()
        bd = bd.extended(table_classifier(s, scores), theta, paint)
        rnd = bd.rounds[-1]
        assert _bits(rnd.z) == _bits(np.exp(ref_log_z))
        assert _bits(rnd.z_by_group) == _bits(np.exp(ref_log_zg))
        assert np.shares_memory(bd._tilt, paint) and _bits(bd._tilt) == _bits(tilt + theta * scores)
        tilt, log_z, log_zg = tilt + theta * scores, log_z + math.log(rnd.z), log_zg + np.log(rnd.z_by_group)
