"""Grid oracle: discretization, the pseudo-negative update with explicit Z,
KL divergence, the per-round identity, and exact sampling."""

import math

import numpy as np
import pytest

from icnet import network as N
from icnet import oracle as O
from icnet import tensor as T
from icnet.cli import SYNTH_NET
from icnet.seeding import rng

from helpers import cell_mass_at

SPEC_2D = [T.dense(2, 12), T.leaky(), T.dense(12, 12), T.leaky()]


def random_classifier(seed: int) -> N.Classifier:
    return N.init_binary(SPEC_2D, (2,), rng(seed, 1))


def grid_of(bounds, mass) -> O.GridDensity:
    """The grid density over `bounds` with the given cell masses, normalized;
    a zero mass is a cell of log mass -inf."""
    mass = np.asarray(mass, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return O.GridDensity.from_log_unnormalized(bounds, mass.shape, np.log(mass))[0]


def random_grid(seed: int, shape=(4, 4)) -> O.GridDensity:
    return grid_of(((-3, 3), (-3, 3)), rng(seed, 4).uniform(0.05, 1.0, size=shape))


class TestBuildGrid:
    def test_uniform_density_gives_equal_cells(self):
        grid = O.build_grid(((-1, 1), (-1, 1)), (8, 8),
                            lambda pts: np.zeros(pts.shape[0]))
        np.testing.assert_allclose(grid.mass, 1.0 / 64, rtol=1e-14)

    def test_gaussian_mass_concentration_vs_cdf(self):
        grid = O.reference_grid(sigma=0.3)
        centers = grid.cell_centers()
        inside = np.all(np.abs(centers) < 0.9, axis=1)
        got = grid.mass.reshape(-1)[inside].sum()
        # independent route: product of two 1D Gaussian interval probabilities
        want = math.erf(0.9 / (0.3 * math.sqrt(2))) ** 2
        assert got >= 0.98
        assert abs(got - want) < 2e-3

    def test_normalized_at_any_resolution(self):
        for res in ((16, 16), (32, 32)):
            grid = O.reference_grid(sigma=0.3, resolution=res)
            assert abs(grid.mass.sum() - 1.0) < 1e-12

    def test_resolution_floor(self):
        with pytest.raises(O.OracleError, match="resolution"):
            O.build_grid(((-1, 1), (-1, 1)), (1, 8),
                         lambda pts: np.zeros(pts.shape[0]))


class TestDensityUpdate:
    def test_zero_logit_keeps_prior(self):
        prior = O.reference_grid(resolution=(32, 32))
        c = random_classifier(0)
        c.head_w[...] = 0.0
        c.head_b[...] = 0.0
        updated, z = O.density_update(prior, c)
        np.testing.assert_allclose(updated.mass, prior.mass, rtol=1e-14)
        assert abs(z - 1.0) < 1e-12

    def test_per_cell_mass_ratio_closed_form(self):
        prior = O.reference_grid(resolution=(16, 16))
        c = random_classifier(1)
        updated, _ = O.density_update(prior, c)
        logits = N.logit_binary(c, prior.cell_centers()).reshape(16, 16)
        pairs = [((2, 3), (9, 9)), ((0, 0), (15, 15)), ((7, 1), (4, 12))]
        for (i, j), (k, l) in pairs:
            got = updated.mass[i, j] / updated.mass[k, l]
            want = math.exp(logits[i, j] - logits[k, l]) * prior.mass[i, j] / prior.mass[k, l]
            assert abs(got / want - 1.0) < 1e-10

    def test_z_matches_independent_double_loop(self):
        prior = O.reference_grid(resolution=(24, 24))
        c = random_classifier(2)
        _, z = O.density_update(prior, c)
        centers = prior.cell_centers().reshape(24, 24, 2)
        total = 0.0
        for i in range(24):
            for j in range(24):
                logit = float(N.logit_binary(c, centers[i, j][None])[0])
                total += math.exp(logit) * prior.mass[i, j]
        assert abs(z - total) < 1e-12 * max(1.0, abs(total))

    @pytest.mark.parametrize("seed", range(5))
    def test_chunked_grid_logits_equal_one_pass_bitwise(self, seed):
        # 50 x 50 cells: one full chunk, then a partial one
        resolution = (50, 50)
        assert O.GRID_CHUNK < 2500 and 2500 % O.GRID_CHUNK
        c = N.init_binary(SYNTH_NET, (2,), rng(seed, 1))
        c.head_b += rng(seed, 2).standard_normal(1)
        grid = O.reference_grid(resolution=resolution)
        one_pass = N.logit_binary(c, grid.cell_centers()).reshape(resolution)
        assert O._grid_logits(grid, c).tobytes() == one_pass.tobytes()

    def test_updated_grid_normalized(self):
        prior = O.reference_grid(resolution=(32, 32))
        updated, _ = O.density_update(prior, random_classifier(3))
        assert abs(updated.mass.sum() - 1.0) < 1e-12


class TestKl:
    def test_self_divergence_zero(self):
        grid = random_grid(10)
        assert O.kl_divergence(grid, grid) == 0.0

    def test_nonnegative_on_random_pairs(self):
        worst = 0.0
        for i in range(1000):
            p = random_grid(2 * i)
            q = random_grid(2 * i + 1)
            worst = min(worst, O.kl_divergence(p, q))
        assert worst >= 0.0

    def test_two_state_hand_value(self):
        # 0.7/0.3 vs 0.5/0.5 split across duplicated cells:
        # 0.7 ln(0.7/0.5) + 0.3 ln(0.3/0.5) = 0.0822828785; worked by hand
        p = grid_of(((-1, 1), (-1, 1)), [[0.35, 0.35], [0.15, 0.15]])
        q = grid_of(((-1, 1), (-1, 1)), [[0.25, 0.25], [0.25, 0.25]])
        assert abs(O.kl_divergence(p, q) - 0.0822828785) < 1e-9

    def test_missing_support_reports_infinity(self):
        p = grid_of(((-1, 1), (-1, 1)), [[0.5, 0.5], [0.0, 0.0]])
        q = grid_of(((-1, 1), (-1, 1)), [[0.0, 0.0], [0.5, 0.5]])
        assert O.kl_divergence(p, q) == float("inf")

    def test_grid_mismatch_rejected(self):
        with pytest.raises(O.GridMismatchError):
            O.kl_divergence(random_grid(1, (4, 4)), random_grid(2, (8, 8)))


class TestRoundRatioNormalizer:
    def test_equal_classifiers_give_unit_h(self):
        prior = O.reference_grid(resolution=(32, 32))
        c = random_classifier(5)
        p_t, _ = O.density_update(prior, c)
        h = O.round_ratio_normalizer(p_t, c, c)
        assert abs(h - 1.0) < 1e-12
        left, right = O.update_identity_sides(
            O.reference_grid(resolution=(32, 32)), prior, c, c)
        assert abs(left) < 1e-12 and abs(right) < 1e-12

    def test_identity_assembled_independently(self):
        # every quantity below is recomputed with plain linear-space sums,
        # bypassing the module's log-space paths
        prior = O.reference_grid(resolution=(64, 64))
        p_plus = O.build_grid(prior.bounds, prior.resolution,
                              lambda pts: -((pts - 0.4) ** 2).sum(axis=1) / 0.1)
        for seed in (6, 7, 8):
            c_t = random_classifier(seed)
            c_next = random_classifier(seed + 100)
            centers = prior.cell_centers()
            l_t = N.logit_binary(c_t, centers)
            l_next = N.logit_binary(c_next, centers)
            m_prior = prior.mass.reshape(-1)
            m_plus = p_plus.mass.reshape(-1)
            p_t = m_prior * np.exp(l_t)
            p_t /= p_t.sum()
            p_next = m_prior * np.exp(l_next)
            p_next /= p_next.sum()
            kl_t = float((m_plus * np.log(m_plus / p_t)).sum())
            kl_next = float((m_plus * np.log(m_plus / p_next)).sum())
            h = float((np.exp(l_next - l_t) * p_t).sum())
            lhs = kl_t - kl_next
            rhs = -math.log(h) + float((m_plus * (l_next - l_t)).sum())
            assert abs(lhs - rhs) < 1e-9
            # and the module's assembly agrees with the independent one
            left, right = O.update_identity_sides(p_plus, prior, c_t, c_next)
            assert abs(left - lhs) < 1e-9 and abs(right - rhs) < 1e-9

    def test_identity_runs_each_classifier_over_the_grid_once(self, monkeypatch):
        calls = []
        grid_logits = O._grid_logits

        def spy(grid, classifier):
            calls.append(classifier)
            return grid_logits(grid, classifier)

        monkeypatch.setattr(O, "_grid_logits", spy)
        prior = O.reference_grid(resolution=(16, 16))
        c_t, c_next = random_classifier(9), random_classifier(109)
        O.update_identity_sides(prior, prior, c_t, c_next)
        assert len(calls) == 2
        assert {id(c) for c in calls} == {id(c_t), id(c_next)}

    @pytest.mark.parametrize("seed", range(3))
    def test_identity_sides_equal_separate_assembly_bitwise(self, seed):
        # the assembly from two density updates, the round-ratio normalizer
        # and a separate logit-grid difference for the gain
        prior = O.reference_grid(resolution=(32, 32))
        p_plus = O.build_grid(prior.bounds, prior.resolution,
                              lambda pts: -((pts - 0.4) ** 2).sum(axis=1) / 0.1)
        c_t = N.init_binary(SYNTH_NET, (2,), rng(seed, 10))
        c_next = N.init_binary(SYNTH_NET, (2,), rng(seed, 11))
        p_t, _ = O.density_update(prior, c_t)
        p_next, _ = O.density_update(prior, c_next)
        left = O.kl_divergence(p_plus, p_t) - O.kl_divergence(p_plus, p_next)
        h = O.round_ratio_normalizer(p_t, c_t, c_next)
        diff = O._grid_logits(prior, c_next) - O._grid_logits(prior, c_t)
        support = p_plus.log_mass > -np.inf
        gain = float((np.exp(p_plus.log_mass[support]) * diff[support]).sum())
        want = (left, -np.log(h) + gain)
        got = O.update_identity_sides(p_plus, prior, c_t, c_next)
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestExactSample:
    def test_point_mass_lands_in_cell(self):
        mass = np.zeros((4, 4))
        mass[1, 2] = 1.0
        grid = grid_of(((-2, 2), (-2, 2)), mass)
        samples = O.exact_grid_sample(grid, 50, rng(20, 4))
        # cell (1,2): x in [-1,0), y in [0,1)
        assert np.all((samples[:, 0] >= -1) & (samples[:, 0] <= 0))
        assert np.all((samples[:, 1] >= 0) & (samples[:, 1] <= 1))

    def test_multinomial_3_sigma_coverage(self):
        grid = random_grid(21, (16, 16))
        n = 100_000
        samples = O.exact_grid_sample(grid, n, rng(21, 4))
        (x0, x1), (y0, y1) = grid.bounds
        ix = np.floor((samples[:, 0] - x0) / (x1 - x0) * 16).astype(int)
        iy = np.floor((samples[:, 1] - y0) / (y1 - y0) * 16).astype(int)
        counts = np.zeros((16, 16))
        np.add.at(counts, (ix, iy), 1)
        p = grid.mass
        sigma = np.sqrt(n * p * (1 - p))
        within = np.abs(counts - n * p) <= 3 * sigma
        assert within.mean() >= 0.99

    def test_same_seed_identical(self):
        grid = random_grid(22)
        a = O.exact_grid_sample(grid, 100, rng(22, 4))
        b = O.exact_grid_sample(grid, 100, rng(22, 4))
        assert np.array_equal(a, b)

    def test_cell_mass_lookup(self):
        grid = random_grid(23, (4, 4))
        centers = grid.cell_centers()
        np.testing.assert_allclose(cell_mass_at(grid, centers),
                                   grid.mass.reshape(-1), rtol=1e-14)
        assert cell_mass_at(grid, [[99.0, 0.0]])[0] == 0.0


class TestExports:
    def test_heatmap_peak_is_255(self):
        grid = random_grid(25)
        gray = O.heatmap_gray(grid)
        assert gray.dtype == np.uint8
        assert gray.max() == 255
