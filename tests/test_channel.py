import math

import numpy as np
import pytest
from scipy import integrate, stats

from oracles import (DegenerateParameterError, all_on, beta2_moment_match,
                     beta2_pdf, split_received, uplink_equalizer, uplink_eta,
                     uplink_sinr_pdf, zf_equalizer)
from swiptctl import channel
from swiptctl.channel import (AntennaSelection, BeamformerSet, ChannelPair,
                              ConditioningError, Dims, achievable_rate,
                              channel_stream, crandn, downlink_sinr,
                              draw_channel, draw_channel_stack,
                              harvested_energy, link_gains, mrt_precoders,
                              normalized, sq_norms,
                              uplink_sinr, zf_noise_gains)


def unit_precoder(shape, rng=None, seed=0):
    rng = rng or np.random.default_rng(seed)
    w = crandn(rng, *shape)
    return w / np.linalg.norm(w)


def make_bf(dims, sel, rng, p_up=1.0, p_down=1.0):
    w_up = tuple(unit_precoder((dims.n_u, dims.n_u), rng) for _ in range(dims.k))
    w_down = tuple(unit_precoder((int(sel.mask.sum()), dims.n_u), rng) for _ in range(dims.k))
    return BeamformerSet(w_up=w_up, w_down=w_down,
                         p_up=np.full(dims.k, p_up), p_down=np.full(dims.k, p_down))


class TestDraws:
    def test_alpha_zero_identity(self):
        ch = draw_channel(Dims(4, 4, 2, 1), 0.0, np.random.default_rng(1))
        np.testing.assert_allclose(ch.h_true, ch.h_est)

    def test_pair_invariant_exact(self):
        ch = draw_channel(Dims(4, 4, 2, 2), 0.3, np.random.default_rng(2))
        np.testing.assert_allclose(
            ch.h_true, math.sqrt(1 - 0.09) * ch.h_est + 0.3 * ch.delta)

    def test_unit_variance_mc(self):
        # (1 - a^2) + a^2 = 1 keeps entries unit variance
        dims = Dims(50, 50, 2, 1)
        rng = np.random.default_rng(3)
        entries = np.concatenate(
            [draw_channel(dims, 0.2, rng).h_true.ravel() for _ in range(1000)])
        assert entries.size == 100_000
        assert abs(np.mean(np.abs(entries) ** 2) - 1.0) < 0.02

    def test_cross_correlation_mc(self):
        dims = Dims(50, 50, 2, 1)
        rng = np.random.default_rng(4)
        acc, n = 0.0, 0
        for _ in range(1000):
            ch = draw_channel(dims, 0.2, rng)
            acc += np.real(np.vdot(ch.h_est, ch.h_true))
            n += ch.h_est.size
        assert abs(acc / n - math.sqrt(1 - 0.04)) < 0.01

    def test_seed_reproducible(self):
        dims = Dims(4, 4, 2, 1)
        a = draw_channel(dims, 0.2, channel_stream(7, link=0))
        b = draw_channel(dims, 0.2, channel_stream(7, link=0))
        np.testing.assert_array_equal(a.h_true, b.h_true)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            draw_channel(Dims(4, 4, 2, 1), 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            draw_channel(Dims(4, 4, 2, 1), -0.1, np.random.default_rng(0))


class TestZf:
    def test_identity_channel(self):
        eq = zf_equalizer(np.eye(4, dtype=complex), 2)
        expected = np.zeros((2, 4), dtype=complex)
        expected[:, :2] = np.eye(2)
        np.testing.assert_allclose(eq, expected)

    def test_random_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = crandn(rng, 6, 6)
            eq = zf_equalizer(h, 3)
            target = np.zeros((3, 6), dtype=complex)
            target[:, :3] = np.eye(3)
            assert np.linalg.norm(eq @ h - target) < 1e-9

    def test_singular_rejected(self):
        h = crandn(np.random.default_rng(6), 4, 4)
        h[2, :] = 0.0
        with pytest.raises(ConditioningError):
            zf_equalizer(h, 2)


class TestStackedGeometry:
    """The stacked forms equal the per-draw computation element for
    element, under a partial antenna mask."""

    @pytest.fixture(params=[(2, 1, 16, 10), (3, 2, 8, 6)],
                    ids=["k2-nu1", "k3-nu2"])
    def case(self, request):
        k, n_u, n_r, n_active = request.param
        dims = Dims(n_t=n_r, n_r=n_r, n_u=n_u, k=k)
        rng = channel_stream(4, link=0)
        draws = [[draw_channel(dims, 0.3, rng) for _ in range(k)]
                 for _ in range(5)]
        stack = draw_channel_stack(dims, 0.3, channel_stream(4, link=0), 5)
        w_up = normalized(crandn(np.random.default_rng(1), 5, k, n_u, n_u))
        return draws, stack, w_up, AntennaSelection.first(n_r, n_active)

    def test_draws(self, case):
        draws, stack, _w, _sel = case
        for name, arr in zip(("h_true", "h_est", "delta"), stack):
            want = [[getattr(ch, name) for ch in d] for d in draws]
            np.testing.assert_array_equal(arr, np.array(want))

    def test_sq_norms_round_as_the_scalar_square(self):
        # np.square differs from the scalar ``norm(m) ** 2`` on about one
        # matrix in 2000
        x = crandn(np.random.default_rng(0), 20000, 3, 1)
        np.testing.assert_array_equal(
            sq_norms(x), [np.linalg.norm(m) ** 2 for m in x])

    def test_geometry(self, case):
        draws, (h_true, h_est, _d), w_up, sel = case
        f_hat = sel.select(h_est)
        w_down = mrt_precoders(f_hat)
        cross = link_gains(f_hat[:, :, None], w_down[:, None])
        zf = zf_noise_gains(f_hat, w_up)
        np.testing.assert_array_equal(sq_norms(h_true), [
            [np.linalg.norm(ch.h_true) ** 2 for ch in d] for d in draws])
        for d_i, chans in enumerate(draws):
            f = [sel.select(ch.h_est) for ch in chans]
            w = [fu.conj() / np.linalg.norm(fu.conj()) for fu in f]
            np.testing.assert_array_equal(w_down[d_i], np.array(w))
            np.testing.assert_array_equal(cross[d_i], [
                [np.linalg.norm(fu.conj().T @ wi) ** 2 for wi in w]
                for fu in f])
            bf = BeamformerSet(w_up=tuple(w_up[d_i]), w_down=tuple(w),
                               p_up=np.ones(len(f)), p_down=np.ones(len(f)))
            for u in range(len(f)):
                h = channel._stack_uplink(chans, sel, bf, u, None)
                diag = np.diag(np.linalg.inv(h.conj().T @ h))
                np.testing.assert_array_equal(zf[d_i, u],
                                              diag[:h_est.shape[-1]].real)


class TestUplinkSinr:
    def test_identity_unity(self):
        # alpha=0, K=1, h=I, unit precoder, p=1, noise=1 -> SINR 1
        h = np.eye(1, dtype=complex)
        ch = ChannelPair(h_true=h, h_est=h, delta=np.zeros_like(h), alpha=0.0)
        bf = BeamformerSet(w_up=(np.eye(1, dtype=complex),),
                           w_down=(np.eye(1, dtype=complex),),
                           p_up=[1.0], p_down=[1.0])
        rep = uplink_sinr((ch,), all_on(1), bf, noise=1.0)
        assert rep.uplink[0][0] == pytest.approx(1.0)

    def test_zero_power(self):
        dims = Dims(6, 6, 2, 2)
        rng = np.random.default_rng(7)
        chans = tuple(draw_channel(dims, 0.1, rng) for _ in range(2))
        sel = all_on(6)
        bf = make_bf(dims, sel, rng, p_up=0.0)
        rep = uplink_sinr(chans, sel, bf, noise=1.0)
        assert all(np.all(u == 0.0) for u in rep.uplink)

    def test_independent_evaluator(self):
        # term-by-term re-implementation of the full-width uplink SINR
        dims = Dims(8, 8, 2, 2)
        rng = np.random.default_rng(8)
        chans = tuple(draw_channel(dims, 0.2, rng) for _ in range(2))
        sel = AntennaSelection.first(8, 6)
        bf = make_bf(dims, sel, rng, p_up=1.7)
        rep = uplink_sinr(chans, sel, bf, noise=0.3)
        alpha = 0.2
        p_err = alpha ** 2 * sum(
            float(bf.p_up[i]) * np.linalg.norm(bf.w_up[i]) ** 2 for i in range(2))
        for k in range(2):
            blocks = [sel.select(chans[k].h_est)]
            for i in range(2):
                if i != k:
                    blocks.append(sel.select(chans[i].h_est) @ bf.w_up[i])
            hc = np.hstack(blocks)
            gram_inv = np.linalg.inv(hc.conj().T @ hc)
            for s in range(2):
                num = (1 - alpha ** 2) * 1.7 * np.linalg.norm(bf.w_up[k]) ** 2 / 2
                den = (p_err + 0.3) * np.real(gram_inv[s, s])
                assert rep.uplink[k][s] == pytest.approx(num / den, rel=1e-9)

    def test_perfect_csi_zero_residual(self):
        # alpha=0: equalizer applied to true interference is numerically null
        dims = Dims(16, 16, 2, 3)
        rng = np.random.default_rng(9)
        sel = all_on(16)
        for _ in range(10):
            chans = tuple(draw_channel(dims, 0.0, rng) for _ in range(3))
            bf = make_bf(dims, sel, rng)
            u = uplink_equalizer(chans, sel, bf, 0)
            desired = np.linalg.norm(u @ sel.select(chans[0].h_true)) ** 2
            interference = sum(
                np.linalg.norm(u @ sel.select(chans[i].h_true) @ bf.w_up[i]) ** 2
                for i in (1, 2))
            assert interference < 1e-12 * desired


class TestDownlinkSinr:
    def test_single_user_closed_form(self):
        dims = Dims(8, 8, 2, 1)
        rng = np.random.default_rng(10)
        ch = draw_channel(dims, 0.0, rng)
        sel = all_on(8)
        bf = make_bf(dims, sel, rng, p_up=0.0, p_down=2.0)
        rep = downlink_sinr((ch,), sel, bf, rho=0.4, noise_d=0.5, noise_s=0.2)
        num = np.linalg.norm(ch.h_est.conj().T @ bf.w_down[0]) ** 2
        den = 0.5 / 2.0 + 0.2 / (0.4 * 2.0)
        assert rep.downlink[0] == pytest.approx(num / den, rel=1e-12)

    def test_monotone_in_rho(self):
        dims = Dims(8, 8, 2, 2)
        rng = np.random.default_rng(11)
        chans = tuple(draw_channel(dims, 0.2, rng) for _ in range(2))
        sel = all_on(8)
        bf = make_bf(dims, sel, rng)
        hi = downlink_sinr(chans, sel, bf, rho=0.99, noise_d=1.0, noise_s=1.0)
        lo = downlink_sinr(chans, sel, bf, rho=0.5, noise_d=1.0, noise_s=1.0)
        assert np.all(hi.downlink > lo.downlink)

    def test_independent_evaluator_k3(self):
        dims = Dims(12, 12, 2, 3)
        rng = np.random.default_rng(12)
        chans = tuple(draw_channel(dims, 0.2, rng) for _ in range(3))
        sel = AntennaSelection.first(12, 8)
        bf = make_bf(dims, sel, rng, p_up=0.5, p_down=2.0)
        xtalk = [[crandn(rng, 2, 2) if i != k else None for i in range(3)]
                 for k in range(3)]
        rep = downlink_sinr(chans, sel, bf, rho=0.5, noise_d=0.7, noise_s=0.3,
                            xtalk=xtalk)
        a2 = 0.04
        for k in range(3):
            f = sel.select(chans[k].h_est)
            num = np.linalg.norm(f.conj().T @ bf.w_down[k]) ** 2
            den = sum(np.linalg.norm(f.conj().T @ bf.w_down[i]) ** 2
                      for i in range(3) if i != k)
            den += a2 / (1 - a2) * sum(
                np.linalg.norm(sel.select(chans[i].delta).conj().T @ bf.w_down[i]) ** 2
                for i in range(3))
            den += sum(0.5 / ((1 - a2) * 2.0)
                       * np.linalg.norm(xtalk[k][i].conj().T @ bf.w_up[i]) ** 2
                       for i in range(3) if i != k)
            den += 0.7 / ((1 - a2) * 2.0) + 0.3 / (0.5 * (1 - a2) * 2.0)
            assert rep.downlink[k] == pytest.approx(num / den, rel=1e-9)

    def test_bad_rho(self):
        dims = Dims(4, 4, 1, 1)
        rng = np.random.default_rng(13)
        ch = draw_channel(dims, 0.1, rng)
        sel = all_on(4)
        bf = make_bf(dims, sel, rng)
        for rho in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                downlink_sinr((ch,), sel, bf, rho=rho, noise_d=1.0, noise_s=1.0)


class TestSplitAndUnits:
    @pytest.mark.parametrize("power,rho,expect_id,expect_eh", [
        (10.0, 0.5, 5.0, 5.0),
        (0.0, 0.3, 0.0, 0.0),
        (8.0, 0.25, 2.0, 6.0),
    ])
    def test_split_values(self, power, rho, expect_id, expect_eh):
        s = split_received(power, rho)
        assert s.id_power == pytest.approx(expect_id)
        assert s.eh_power == pytest.approx(expect_eh)
        assert s.id_power + s.eh_power == pytest.approx(power)

    def test_split_rejects_negative(self):
        with pytest.raises(ValueError):
            split_received(-1.0, 0.5)

    def test_harvest_units(self):
        assert harvested_energy(0.0, 0.4, 5e-3, 1e-3, cap=5) == 0
        # eta=0.4, 1 W, 5 ms slot, 1 mJ per unit -> floor(2.0) = 2
        assert harvested_energy(1.0, 0.4, 5e-3, 1e-3, cap=5) == 2
        assert harvested_energy(100.0, 0.4, 5e-3, 1e-3, cap=5) == 5
        # the cap applies before the floor, so an overflow gives the cap
        assert harvested_energy(1.0, 1e308, 5e-3, 1e-9, cap=5) == 5

    def test_rate(self):
        assert achievable_rate(0.0, 10e6, 5e-3, 20e3) == 0
        # sinr=3 -> 2 bits/s/Hz -> floor(10e6 * 5e-3 * 2 / 20e3) = 5
        assert achievable_rate(3.0, 10e6, 5e-3, 20e3) == 5
        rates = [achievable_rate(s, 10e6, 5e-3, 20e3) for s in np.linspace(0, 30, 40)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestBetaII:
    def test_symmetry_collapse(self):
        p = beta2_moment_match(16, 1, 0.0, 1.0, 1.0)
        assert p.eta_g == pytest.approx(1.0)
        assert p.n_g == pytest.approx(32.0)
        # alpha -> 0, k=1: q stage reduces to g stage
        assert p.eta_q == pytest.approx(p.eta_g)
        assert p.n_q == pytest.approx(p.n_g)

    def test_chain_independent_evaluation(self):
        # independent numeric evaluation of the matching chain
        n_t, k, alpha, ratio, sd0 = 16, 3, 0.2, 1.0, 1.0
        r = ratio / (1 - alpha ** 2)
        a = alpha ** 2 / (1 - alpha ** 2)
        eta_g = (k * (1 + r ** 2) - 1) / (k * (1 + r) - 1)
        n_g = 2 * n_t * (r * k + k - 1) ** 2 / (r ** 2 * k + k - 1)
        eta_q = (n_g * eta_g ** 2 + 2 * n_t * k * a ** 2) \
            / (n_g * eta_g + 2 * n_t * k * a)
        n_q = (2 * n_t * k * a + n_g * eta_g) ** 2 \
            / (2 * n_t * k * a ** 2 + n_g * eta_g ** 2)
        eta_v = eta_q * n_q / (n_q + sd0)
        n_v = n_q / 2 + sd0 * (2 * n_q + sd0) / (2 * n_q)
        n1 = n_t * (n_t + (n_v - 2) * eta_v + 1) / (eta_v * (n_t + n_v - 1))
        n2 = (n_v * (n_t - 3 * eta_v + 2) + n_v ** 2 * eta_v + 2 * (eta_v - 1)) \
            / (n_t + n_v - 1)
        p = beta2_moment_match(n_t, k, alpha, ratio, sd0)
        assert (p.n1, p.n2) == pytest.approx((n1, n2), rel=1e-14)

    def test_chain_deterministic(self):
        a = beta2_moment_match(16, 3, 0.2, 1.0, 1.0)
        b = beta2_moment_match(16, 3, 0.2, 1.0, 1.0)
        assert (a.n1, a.n2, a.eta_v, a.n_v) == (b.n1, b.n2, b.eta_v, b.n_v)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateParameterError):
            beta2_moment_match(16, 1, 0.0, 0.0, 1.0)

    def test_pdf_normalizes(self):
        p = beta2_moment_match(16, 3, 0.2, 1.0, 3.0)
        total, _ = integrate.quad(lambda g: beta2_pdf(g, p, 1), 0, np.inf,
                                  limit=200)
        assert abs(total - 1.0) < 1e-4

    def test_pdf_boundary_and_mode(self):
        p = beta2_moment_match(16, 3, 0.2, 1.0, 3.0)
        assert beta2_pdf(1e-12, p, 1) < 1e-6
        grid = np.linspace(1e-4, 10.0, 20001)
        dens = np.array([beta2_pdf(g, p, 1) for g in grid])
        mode_grid = grid[np.argmax(dens)]
        mode_formula = (p.n1 - 1.0) / (p.n2 + 1.0)
        assert abs(mode_grid - mode_formula) < 2 * (grid[1] - grid[0])

    def test_pdf_rejects_nonpositive(self):
        p = beta2_moment_match(16, 3, 0.2, 1.0, 3.0)
        with pytest.raises(ValueError):
            beta2_pdf(0.0, p, 1)


class TestUplinkPdf:
    def test_normalizes(self):
        dims = Dims(16, 16, 1, 1)
        eta = uplink_eta(dims, 0.2, p_up=1.0, noise=1.0)
        total, _ = integrate.quad(lambda g: uplink_sinr_pdf(g, eta, dims),
                                  0, np.inf, limit=200)
        assert abs(total - 1.0) < 1e-3

    def test_boundary_zero(self):
        dims = Dims(16, 16, 1, 1)
        eta = uplink_eta(dims, 0.2, p_up=1.0, noise=1.0)
        assert uplink_sinr_pdf(1e-12, eta, dims) < 1e-9

    def test_gof_against_monte_carlo(self):
        # two-sample agreement between sampled uplink SINR and the density
        dims = Dims(16, 16, 1, 1)
        rng = np.random.default_rng(14)
        sel = all_on(16)
        w = np.ones((1, 1), dtype=complex)
        wd = unit_precoder((16, 1), rng)
        bf = BeamformerSet(w_up=(w,), w_down=(wd,), p_up=[1.0], p_down=[1.0])
        samples = np.array([
            uplink_sinr((draw_channel(dims, 0.2, rng),), sel, bf,
                        noise=1.0).uplink[0][0]
            for _ in range(20000)])
        eta = uplink_eta(dims, 0.2, p_up=1.0, noise=1.0)
        _, p_val = stats.kstest(samples,
                                stats.gamma(a=16, scale=2 * eta ** 2).cdf)
        assert p_val > 0.01
