import numpy as np
import pytest

from conftest import cn
from gpris.baselines import random_phases, rzf_precoder, rzf_regularizer


class TestRzf:
    def test_regularizer_value(self):
        assert rzf_regularizer(4, 0.25) == pytest.approx(1.0)

    def test_unit_total_power(self, rng):
        h = cn((3, 6), rng)
        f = rzf_precoder(h, rzf_regularizer(3, 0.1))
        assert f.total_power == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_formula(self, rng):
        k, n = 3, 5
        h = cn((k, n), rng)
        reg = 0.3
        # push-through identity: (A A^H + reg I)^-1 A == A (A^H A + reg I)^-1,
        # giving an independent K x K route to the same precoder
        a = h.T  # columns are the channels
        raw = a @ np.linalg.inv(a.conj().T @ a + reg * np.eye(k))
        raw = raw / np.linalg.norm(raw)
        f = rzf_precoder(h, reg)
        assert np.allclose(f.matrix, raw, atol=1e-10)

    def test_single_user_matched_direction_as_reg_grows(self, rng):
        # large regularizer washes out the inversion: f -> h^H / ||h||
        h = cn((1, 5), rng)
        f = rzf_precoder(h, 1e9)
        cosine = abs(np.vdot(h[0], f.matrix[:, 0])) / np.linalg.norm(h)
        assert cosine > 1 - 1e-9

    def test_zero_reg_is_zero_forcing(self, rng):
        # with reg -> 0 the effective channel matrix becomes diagonal
        k, n = 3, 6
        h = cn((k, n), rng)
        f = rzf_precoder(h, 1e-12)
        gains = h.conj() @ f.matrix
        off = gains - np.diag(np.diag(gains))
        assert np.max(np.abs(off)) < 1e-6 * np.max(np.abs(np.diag(gains)))


class TestRandomPhases:
    def test_exact_unit_moduli(self, rng):
        ph = random_phases(3, 5, rng)
        assert np.all(np.abs(ph.stacked) == 1.0)
        assert ph.projected

    def test_deterministic_given_rng_state(self):
        a = random_phases(2, 4, np.random.default_rng(5))
        b = random_phases(2, 4, np.random.default_rng(5))
        assert np.array_equal(a.per_ris, b.per_ris)

    def test_uniform_phase_distribution(self):
        # the mean of e^{j theta} over uniform theta is 0
        rng = np.random.default_rng(0)
        vals = np.concatenate([random_phases(1, 1000, rng).stacked
                               for _ in range(100)])
        assert abs(vals.mean()) < 0.02
