"""Probability tables: fitting, fairness measures, KL."""

import math

import numpy as np
import pytest

from fairboost import (
    TabularDensity,
    fit_empirical,
    kl_divergence,
    representation_rate,
    statistical_rate,
)
from fairboost.schema import Attribute, AttributeSchema
from fairboost.tabular import _KL_BLOCK, _pairwise_sum, _sample_cdf, discrimination_control

from conftest import dataset_from_rows, density, group_matrix, random_density, xa_schema, xya_schema


def a_only_schema(card=2):
    return AttributeSchema(attributes=(Attribute("a", card),), sensitive_index=0)


def ya_schema(ny=2, na=2):
    return AttributeSchema(
        attributes=(Attribute("y", ny), Attribute("a", na)),
        sensitive_index=1,
        target_index=0,
    )


# -- construction --


def test_density_validation():
    s = a_only_schema()
    with pytest.raises(ValueError, match="sum to 1"):
        TabularDensity(s, np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="length"):
        TabularDensity(s, np.array([1.0]))
    with pytest.raises(ValueError, match="length"):
        TabularDensity(s, np.array([[0.5, 0.5]]))  # a mass is flat: no shape is reshaped into one
    with pytest.raises(ValueError, match="finite"):
        TabularDensity(s, np.array([1.5, -0.5]))


def test_density_copies_mass_it_does_not_own_alone():
    # a writable array, or a read-only view of one, is copied; a read-only array
    # that owns its data is adopted
    s = a_only_schema()
    mass = np.array([0.25, 0.75])
    d = TabularDensity(s, mass)
    assert not np.shares_memory(d.mass, mass) and not d.mass.flags.writeable
    mass[:] = 0.5
    assert d.mass.tolist() == [0.25, 0.75]
    view = mass[:]
    view.setflags(write=False)
    assert not np.shares_memory(TabularDensity(s, view).mass, mass)
    owned = np.array([0.5, 0.5])
    owned.setflags(write=False)
    assert TabularDensity(s, owned).mass is owned


def test_random_densities_normalized(rng):
    s = xya_schema(nx=3)
    for _ in range(20):
        d = random_density(s, rng)
        assert abs(d.mass.sum() - 1.0) <= 1e-12


# -- fit_empirical --


def test_fit_empirical_point_mass():
    s = a_only_schema()
    d = dataset_from_rows(s, [[0]] * 4)
    assert np.allclose(fit_empirical(d, 0.0).mass, [1.0, 0.0])


def test_fit_empirical_laplace():
    s = a_only_schema()
    d = dataset_from_rows(s, [[0]] * 4)
    assert np.allclose(fit_empirical(d, 1.0).mass, [5.0 / 6.0, 1.0 / 6.0])


def test_fit_empirical_split():
    s = a_only_schema()
    d = dataset_from_rows(s, [[0], [0], [1], [1]])
    assert np.allclose(fit_empirical(d, 0.0).mass, [0.5, 0.5])


def test_fit_empirical_weighted():
    s = a_only_schema()
    # a repeated row counts once per copy
    d = dataset_from_rows(s, [[0], [1], [0], [0]])
    assert np.array_equal(fit_empirical(d, 0.0).mass, [0.75, 0.25])


def test_sample_draws_from_table():
    s = xa_schema(nx=3, na=2)
    d = density(s, [0.0, 1.0, 2.0, 3.0, 0.0, 4.0])
    a = d.sample(20_000, seed=4)
    assert a.schema == s
    freq = np.bincount(s.encode(a.rows), minlength=6) / len(a)
    assert freq[0] == 0.0 and freq[4] == 0.0  # empty cells are never drawn
    assert np.allclose(freq, d.mass, atol=0.02)
    assert np.array_equal(d.sample(20_000, seed=4).rows, a.rows)
    assert not np.array_equal(d.sample(20_000, seed=5).rows, a.rows)
    with pytest.raises(ValueError, match="n must be >= 1"):
        d.sample(0, seed=0)


def reference_cells(mass, u):
    """The inverse-CDF search on unsorted keys: each key's first cell whose
    CDF value exceeds it, clamped to the last cell."""
    cdf = np.cumsum(mass)
    return np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"), len(cdf) - 1)


def one_cell_schema():
    return AttributeSchema(attributes=(Attribute("x", 1), Attribute("a", 1)), sensitive_index=1)


SAMPLE_TABLES = [
    # zero-mass runs at the start, inside and at the end of the table
    (xa_schema(nx=6, na=2), [0.0, 0.0, 3.0, 1.0, 0.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0]),
    (xa_schema(nx=3, na=2), [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    (one_cell_schema(), [1.0]),
]


@pytest.mark.parametrize("table", range(len(SAMPLE_TABLES)))
@pytest.mark.parametrize("n", [1, 2, 7, 5000])
def test_sample_rows_equal_unsorted_search(table, n):
    schema, weights = SAMPLE_TABLES[table]
    d = density(schema, weights)
    for seed in range(5):
        u = np.random.default_rng(seed).random(n)
        expected = schema.decode(reference_cells(d.mass, u))
        assert np.array_equal(d.sample(n, seed).rows, expected)


def wide_sparse_table():
    """70,000 cells (more than 2**16), zero-mass runs at the start, inside and at the end."""
    weights = np.random.default_rng(11).random(70_000)
    weights[:900] = weights[30_000:41_000] = weights[-2_500:] = 0.0
    return xa_schema(nx=35_000, na=2), weights


@pytest.mark.parametrize("table", range(len(SAMPLE_TABLES) + 1))
def test_sample_from_cdf_built_in_place_equals_sample(table):
    # the fit turns its own joint buffer into the CDF in place and draws through
    # the same search: its rows are TabularDensity.sample's, bit for bit
    schema, weights = (SAMPLE_TABLES + [wide_sparse_table()])[table]
    d = density(schema, weights)
    for seed in range(4):
        for n in (1, 9, 4000):
            buf = d.mass.copy()
            rows = _sample_cdf(schema, np.cumsum(buf, out=buf), n, seed).rows
            assert np.array_equal(rows, d.sample(n, seed).rows)


def test_sample_rows_equal_unsorted_search_on_random_sparse_tables(rng):
    schema = xya_schema(nx=7, ny=3, na=2)
    for _ in range(20):
        mass = rng.random(schema.n_cells) * (rng.random(schema.n_cells) < 0.3)
        mass[rng.integers(schema.n_cells)] += 1.0
        d = density(schema, mass)
        n, seed = int(rng.integers(1, 3000)), int(rng.integers(2**31))
        u = np.random.default_rng(seed).random(n)
        assert np.array_equal(d.sample(n, seed).rows, schema.decode(reference_cells(d.mass, u)))


class _FixedUniforms:
    """Stands in for a seeded generator: ``random(n)`` returns chosen values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


def test_sample_keys_on_cdf_values_and_the_clamp(monkeypatch):
    # dyadic masses, so u * cdf[-1] lands exactly on CDF values; 1.0 (which a
    # generator never returns) lands on cdf[-1] and reaches the clamp, here a
    # trailing zero-mass cell
    s = xa_schema(nx=3, na=2)
    d = density(s, [0.25, 0.0, 0.25, 0.5, 0.0, 0.0])  # cdf 0.25 0.25 0.5 1 1 1
    u = [0.5, 0.0, 1.0, 0.25, 0.75, 0.25, 0.0, 1.0 - 2.0**-53]
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedUniforms(u))
    cells = s.encode(d.sample(len(u), seed=0).rows)
    assert cells.tolist() == reference_cells(d.mass, np.array(u)).tolist() == [3, 0, 5, 2, 3, 2, 0, 3]
    one = density(one_cell_schema(), [1.0])
    for v in (0.0, 0.5, 1.0):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _FixedUniforms([v]))
        assert one.sample(1, seed=0).rows.tolist() == [[0, 0]]


def test_fit_empirical_errors():
    s = a_only_schema()
    with pytest.raises(ValueError, match="empty dataset"):
        fit_empirical(dataset_from_rows(s, np.zeros((0, 1), dtype=np.int64)), 0.0)
    with pytest.raises(ValueError, match="smoothing"):
        fit_empirical(dataset_from_rows(s, [[0]]), -0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"smoothing must be finite, got {bad!r}"):
            fit_empirical(dataset_from_rows(s, [[0]]), bad)
    # N + smoothing * n_cells overflows: refused by name, not as a table that sums to 0
    with pytest.raises(ValueError, match=r"^smoothing 1e\+308 over 2 cells gives a table total that overflows$"):
        fit_empirical(dataset_from_rows(s, [[0]]), 1e308)


def test_fit_empirical_negative_zero_smoothing_keeps_the_bits():
    d = dataset_from_rows(a_only_schema(3), [[0], [2], [0]])
    for smoothing in (0.0, -0.0):
        mass = fit_empirical(d, smoothing).mass
        assert mass.tobytes() == (np.array([2.0, 0.0, 1.0]) / 3).tobytes()


# -- representation rate --


def test_rr_uniform():
    assert representation_rate(density(a_only_schema(), [0.5, 0.5])) == 1.0


def test_rr_skewed():
    val = representation_rate(density(a_only_schema(), [0.9, 0.1]))
    assert abs(val - 1.0 / 9.0) <= 1e-12


def test_rr_three_groups():
    val = representation_rate(density(a_only_schema(3), [0.5, 0.3, 0.2]))
    assert abs(val - 0.4) <= 1e-12


def test_rr_degenerate():
    with pytest.raises(ValueError, match="degenerate marginal"):
        representation_rate(density(a_only_schema(), [1.0, 0.0]))


def test_rr_uniform_marginal_any_conditionals(rng):
    s = xa_schema(nx=4)
    hit = 0
    for _ in range(40):
        # dyadic conditionals keep every float sum exact, so the group
        # marginals land on identical floats and RR is exactly 1
        cond = rng.multinomial(16, [0.25] * 4, size=2) / 16.0
        if (cond == 0).any():
            continue
        mass = np.zeros(s.n_cells)
        for i, (x, a) in enumerate(s.all_cells()):
            mass[i] = 0.5 * cond[a, x]
        assert representation_rate(TabularDensity(s, mass)) == 1.0
        hit += 1
    assert hit >= 5


# -- statistical rate and discrimination control --


def test_sr_independent():
    s = ya_schema()
    d = density(s, [0.3 * 0.6, 0.3 * 0.4, 0.7 * 0.6, 0.7 * 0.4])
    assert abs(statistical_rate(d, 1) - 1.0) <= 1e-12
    assert discrimination_control(d, 1) <= 1e-12


def test_sr_forced_ratio():
    # p[Y=1|a0]=0.8, p[Y=1|a1]=0.6, equal group masses
    s = ya_schema()
    d = density(s, [0.1, 0.2, 0.4, 0.3])
    assert abs(statistical_rate(d, 1) - 0.75) <= 1e-12
    assert abs(discrimination_control(d, 1) - 1.0 / 3.0) <= 1e-12


def test_sr_matches_enumeration(rng):
    s = ya_schema(ny=2, na=2)
    for _ in range(50):
        d = random_density(s, rng)
        groups = group_matrix(d.schema, d.mass)  # (|A|, |Y|)
        cond = groups[:, 1] / groups.sum(axis=1)
        expect = min(
            cond[i] / cond[j] for i in range(2) for j in range(2) if i != j
        )
        assert abs(statistical_rate(d, 1) - expect) <= 1e-12
        expect_dc = max(
            abs(cond[i] / cond[j] - 1.0) for i in range(2) for j in range(2) if i != j
        )
        assert abs(discrimination_control(d, 1) - expect_dc) <= 1e-12


def test_dc_reciprocal_bound(rng):
    s = ya_schema()
    for _ in range(100):
        d = random_density(s, rng)
        rho = statistical_rate(d, 1)
        assert discrimination_control(d, 1) <= (1.0 - rho) / rho + 1e-12


def test_sr_errors():
    no_target = density(a_only_schema(), [0.5, 0.5])
    with pytest.raises(ValueError, match="no target attribute"):
        statistical_rate(no_target, 1)
    s = ya_schema()
    zero_cond = density(s, [0.25, 0.5, 0.25, 0.0])
    with pytest.raises(ValueError, match="degenerate conditional"):
        statistical_rate(zero_cond, 1)
    with pytest.raises(ValueError, match="out of range"):
        statistical_rate(density(s, [0.25] * 4), 5)


# -- KL divergence --


def test_kl_zero_at_equality(rng):
    s = xa_schema(nx=3)
    d = random_density(s, rng)
    assert kl_divergence(d.mass, d.mass) == 0.0


def test_kl_hand_values():
    s = a_only_schema()
    p = density(s, [0.5, 0.5])
    q = density(s, [0.25, 0.75])
    expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(kl_divergence(p.mass, q.mass) - expect) <= 1e-12

    point = density(s, [1.0, 0.0])
    assert abs(kl_divergence(point.mass, p.mass) - math.log(2.0)) <= 1e-12
    # both restricted to p's support: the same cells, so the same bits
    assert kl_divergence(point.mass[:1], p.mass[:1]) == kl_divergence(point.mass, p.mass)


def test_kl_leaves_its_inputs_unchanged():
    pm, qm = np.array([0.5, 0.25, 0.25]), np.array([0.25, 0.25, 0.5])
    kl_divergence(pm, qm)
    assert pm.tolist() == [0.5, 0.25, 0.25] and qm.tolist() == [0.25, 0.25, 0.5]


def test_kl_absolute_continuity():
    s = a_only_schema()
    p = density(s, [0.5, 0.5])
    q = density(s, [1.0, 0.0])
    with pytest.raises(ValueError, match="absolute continuity violated"):
        kl_divergence(p.mass, q.mass)
    # support shrink in p is fine
    assert kl_divergence(q.mass, p.mass) > 0.0


B = _KL_BLOCK


@pytest.mark.parametrize(
    "zero_runs",
    [
        [(B, 100)], [(B + B // 2, 100)], [(2 * B - 100, 100)],
        [(B + 1, B - 1)], [(B, B)], [(B - 1, B + 1)], [(0, 7), (3 * B + 12, 5)],
    ],
    ids=["block-start", "block-middle", "block-end", "block-minus-1", "one-block", "block-plus-1", "both-ends"],
)
def test_kl_blocks_keep_the_whole_array_bits(rng, zero_runs):
    # each block's terms are the whole-array expression's, and one sum runs over them all
    pm, qm = rng.random(3 * B + 17) ** 3, rng.random(3 * B + 17) + 1e-3
    for start, length in zero_runs:
        pm[start : start + length] = 0.0
    pm /= pm.sum()
    qm /= qm.sum()
    support = pm > 0
    p, q = pm[support], qm[support]
    whole = np.float64(((np.log(p) - np.log(q)) * p).sum())
    assert whole > 0.0
    for got in (kl_divergence(pm, qm), kl_divergence(p, q)):
        assert np.float64(got).view(np.uint64) == whole.view(np.uint64)
    qm[3 * B + 9] = 0.0  # inside p's support, in the last block
    assert pm[3 * B + 9] > 0.0
    with pytest.raises(ValueError, match="absolute continuity violated"):
        kl_divergence(pm, qm)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 127, 128, 129, B - 1, B + 1, 2 * B - 1, 2 * B + 1, 2_000_003])
def test_pairwise_sum_has_the_bits_of_np_sum(rng, n):
    # numpy's pairwise tree for add.reduce, rebuilt run by run over uneven blocks, some of
    # them empty: if a numpy version sums differently, this fails ahead of any digest
    values = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-20.0, 20.0, n))
    blocks = np.split(values, np.sort(np.repeat(rng.integers(0, n + 1, 20), 2)))
    assert any(len(b) == 0 for b in blocks)
    got, whole = np.float64(_pairwise_sum(iter(blocks), n)), values.sum()
    assert got.view(np.uint64) == whole.view(np.uint64)
    zeros = np.full(n, -0.0)  # np.sum adds its tree to 0.0, so a sum of -0.0s is 0.0
    assert np.float64(_pairwise_sum(iter([zeros]), n)).view(np.uint64) == zeros.sum().view(np.uint64)


def test_kl_nonnegative_zero_only_at_equality(rng):
    s = xa_schema(nx=4)
    for _ in range(50):
        p, q = random_density(s, rng), random_density(s, rng)
        val = kl_divergence(p.mass, q.mass)
        assert val >= 0.0
        if not np.allclose(p.mass, q.mass):
            assert val > 0.0


def test_kl_schema_mismatch(rng):
    # two schemas' masses are not aligned: their lengths differ
    p, q = random_density(xa_schema(nx=2), rng), random_density(xa_schema(nx=3), rng)
    with pytest.raises(ValueError, match=r"mass vectors are not aligned: shapes \(4,\) and \(6,\)"):
        kl_divergence(p.mass, q.mass)
