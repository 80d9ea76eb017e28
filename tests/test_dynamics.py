import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse, special, stats

from oracles import (InadmissibleActionError, decode, effective_effect,
                     encode, kernel_matrices, states, step_energy, step_queue,
                     user_next_pmf)
from swiptctl import dynamics
from swiptctl.dynamics import (ActionTable, LevelModel, StateSpace,
                               StateSpaceBudgetError, TransitionKernel,
                               arrival_pmf, build_kernel,
                               build_observation_matrix, level_map_matrix,
                               user_action_table)
from swiptctl.scenario import compile_scenario, desk_scenario


class TestRecursions:
    @pytest.mark.parametrize("q,served,arrived,q_max,expect", [
        (5, 2, 3, 30, 6),
        (1, 4, 0, 30, 0),        # over-service clips at zero
        (29, 0, 5, 30, 30),      # overflow clips at q_max
        (0, 0, 0, 30, 0),
        (30, 30, 30, 30, 30),
    ])
    def test_queue_values(self, q, served, arrived, q_max, expect):
        assert step_queue(q, served, arrived, q_max) == expect

    @pytest.mark.parametrize("e,used,harv,e_max,expect", [
        (5, 2, 1, 10, 4),
        (5, 5, 0, 10, 0),
        (9, 0, 5, 10, 10),       # overcharge clips at e_max
        (0, 0, 3, 10, 3),
    ])
    def test_energy_values(self, e, used, harv, e_max, expect):
        assert step_energy(e, used, harv, e_max) == expect

    def test_energy_inadmissible(self):
        with pytest.raises(InadmissibleActionError):
            step_energy(2, 3, 0, 10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            step_queue(-1, 0, 0, 10)
        with pytest.raises(ValueError):
            step_energy(0, 0, -1, 10)

    @given(q=st.integers(0, 50), served=st.integers(0, 50),
           arrived=st.integers(0, 50), q_max=st.integers(0, 50))
    def test_queue_bounds_property(self, q, served, arrived, q_max):
        q = min(q, q_max)
        nxt = step_queue(q, served, arrived, q_max)
        assert 0 <= nxt <= q_max
        # monotone in arrivals, antitone in service
        assert nxt >= step_queue(q, served + 1, arrived, q_max)
        assert nxt <= step_queue(q, served, arrived + 1, q_max)

    @given(e=st.integers(0, 50), used=st.integers(0, 50),
           harv=st.integers(0, 50), e_max=st.integers(0, 50))
    def test_energy_bounds_property(self, e, used, harv, e_max):
        e = min(e, e_max)
        used = min(used, e)
        nxt = step_energy(e, used, harv, e_max)
        assert 0 <= nxt <= e_max


def scipy_arrival_pmf(lam):
    """The arrival pmf as scipy's Poisson functions give it: the cap is the
    smallest n with ``pdtrc(n, lam)`` (P(A > n)) below 1e-9, and the log-pmf
    is the one ``scipy.stats.poisson`` evaluates."""
    cap = 0
    while special.pdtrc(cap, lam) >= 1e-9:
        cap += 1
    k = np.arange(cap + 1)
    pmf = np.exp(special.xlogy(k, lam) - special.gammaln(k + 1) - lam)
    return pmf / pmf.sum()


class TestArrivals:
    def test_cap_tail_bound(self):
        cap = arrival_pmf(0.05).size - 1
        assert stats.poisson.sf(cap, 0.05) < 1e-9
        assert stats.poisson.sf(cap - 1, 0.05) >= 1e-9

    def test_matches_scipy_on_a_grid_of_rates(self):
        # the log-pmf is bit for bit scipy's while log(k!) is exactly
        # gammaln(k + 1), up to k = 12 (every rate below about 1.26,
        # both presets included); beyond that the last bits may differ
        lams = np.concatenate([np.geomspace(1e-4, 20, 600),
                               np.linspace(1e-4, 20, 600)])
        for lam in lams:
            pmf, want = arrival_pmf(lam), scipy_arrival_pmf(lam)
            cap = pmf.size - 1
            assert stats.poisson.sf(cap, lam) < 1e-9, lam
            assert cap == 0 or stats.poisson.sf(cap - 1, lam) >= 1e-9, lam
            if cap <= 12:
                assert pmf.tolist() == want.tolist(), lam
            else:
                np.testing.assert_allclose(pmf, want, rtol=1e-13, atol=0)

    def test_pmf_sums_to_one(self):
        for lam in (0.05, 0.5, 3.0):
            pmf = arrival_pmf(lam)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
            assert (pmf >= 0).all()

    def test_truncation_renormalizes(self):
        pmf = arrival_pmf(1.0)
        raw = stats.poisson.pmf(np.arange(pmf.size), 1.0)
        np.testing.assert_allclose(pmf, raw / raw.sum())

    def test_mean_close_to_lam(self):
        pmf = arrival_pmf(0.05)
        assert abs(np.dot(np.arange(pmf.size), pmf) - 0.05) < 1e-9

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            arrival_pmf(0.0)


class TestStateSpace:
    def test_size(self):
        sp = StateSpace(n_users=2, q_max=3, e_max=2, n_levels=3)
        assert sp.per_user == 4 * 3 * 3
        assert sp.size == 36 ** 2

    def test_encode_decode_roundtrip(self):
        sp = StateSpace(n_users=2, q_max=3, e_max=2, n_levels=3)
        for idx in range(sp.size):
            assert encode(sp, decode(sp, idx)) == idx

    def test_enumeration_bijective(self):
        sp = StateSpace(n_users=2, q_max=2, e_max=1, n_levels=2)
        seen = {idx for idx, _ in states(sp)}
        assert seen == set(range(sp.size))


def simple_setup(n_users=1, q_max=3, e_max=2, lam=0.5):
    sp = StateSpace(n_users=n_users, q_max=q_max, e_max=e_max, n_levels=2)
    level = LevelModel(probs=np.array([0.7, 0.3]),
                       obs_confusion=np.array([[0.9, 0.1], [0.2, 0.8]]))
    # the Poisson pmf truncated at 3 arrivals, for a small kernel
    pmf = stats.poisson.pmf(np.arange(4), lam)
    pmf /= pmf.sum()
    # action 0 idles; action 1 pays one unit to serve 1 or 2 packets and
    # harvests 0 or 1 unit, at level 0 or 1
    idle, tx = np.zeros(n_users, int), np.ones(n_users, int)
    actions = ActionTable(
        served=np.array([np.zeros((n_users, 2), int),
                         np.tile([1, 2], (n_users, 1))]),
        harvested=np.array([np.zeros((n_users, 2), int),
                            np.tile([0, 1], (n_users, 1))]),
        used_units=np.array([idle, tx]), p_up=np.array([idle, tx], float),
        p_down=np.array([idle, tx], float),
        rate_down=np.array([idle, tx], float),
        mask_id=np.zeros(2, int), n_active=np.full(2, 16))
    return sp, pmf, level, actions


def enumerated_kernel(space, pmf_arr, level, actions):
    """Reference kernel: every joint transition's probability as the product
    of the per-user factors, in user order, one joint state at a time."""
    mats = []
    for a in range(len(actions)):
        rows, cols, vals = [], [], []
        for idx, users in states(space):
            supports = [
                user_next_pmf(q, e, lv, actions, a, u, pmf_arr, level, space)
                for u, (q, e, lv) in enumerate(users)
            ]
            for combo in itertools.product(*supports):
                p = 1.0
                for _, pu in combo:
                    p *= pu
                rows.append(idx)
                cols.append(encode(space, tuple(c[0] for c in combo)))
                vals.append(p)
        m = sparse.csr_matrix((vals, (rows, cols)),
                              shape=(space.size, space.size))
        m.sum_duplicates()
        mats.append(m)
    return mats


def enumerated_observations(space, level):
    """Reference Pr(O | S'), one joint state at a time."""
    conf = level.obs_confusion
    rows, cols, vals = [], [], []
    for idx, users in states(space):
        choices = [[((q, e, ol), conf[lv, ol])
                    for ol in range(space.n_levels) if conf[lv, ol] > 0]
                   for (q, e, lv) in users]
        for combo in itertools.product(*choices):
            p = 1.0
            for _, pu in combo:
                p *= pu
            rows.append(idx)
            cols.append(encode(space, tuple(c[0] for c in combo)))
            vals.append(p)
    m = sparse.csr_matrix((vals, (rows, cols)), shape=(space.size, space.size))
    m.sum_duplicates()
    return m


def assert_same_arrays(got, ref):
    assert got.format == ref.format
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestKernel:
    def test_rows_stochastic(self):
        sp, arr, level, actions = simple_setup(n_users=2)
        kern = build_kernel(sp, arr, level, actions)
        for m in kernel_matrices(kern):
            np.testing.assert_allclose(
                np.asarray(m.sum(axis=1)).ravel(), 1.0, atol=1e-12)

    def test_single_user_row_hand_computed(self):
        # state (q=2, e=1, l=0), action tx: served=1, used=1, harvested=0
        sp, arr, level, actions = simple_setup()
        kern = build_kernel(sp, arr, level, actions)
        row = kernel_matrices(kern)[1][encode(sp, ((2, 1, 0),))]
        row = row.toarray().ravel()
        expected = np.zeros(sp.size)
        for a_n, p_a in enumerate(arr):
            qn = min(1 + a_n, 3)
            for ln, p_l in enumerate([0.7, 0.3]):
                expected[encode(sp, ((qn, 0, ln),))] += p_a * p_l
        np.testing.assert_allclose(row, expected, atol=1e-14)

    def test_inadmissible_falls_back_to_idle(self):
        # e=0 cannot pay used=1: nothing served or spent (harvesting is a
        # separate physical process; at level 0 the tx action harvests 0,
        # so the whole row collapses onto the idle row)
        sp, arr, level, actions = simple_setup()
        kern = build_kernel(sp, arr, level, actions)
        s = encode(sp, ((2, 0, 0),))
        mats = kernel_matrices(kern)
        np.testing.assert_allclose(mats[1][s].toarray(), mats[0][s].toarray(),
                                   atol=1e-15)

    def test_factorization_product_form(self):
        # the Kronecker product of the factors equals the joint enumeration
        # bit for bit
        for n_users, q_max in ((2, 3), (3, 1)):
            sp, arr, level, actions = simple_setup(n_users=n_users,
                                                   q_max=q_max)
            kern = build_kernel(sp, arr, level, actions)
            ref = enumerated_kernel(sp, arr, level, actions)
            mats = kernel_matrices(kern)
            assert len(mats) == len(ref)
            for got, want in zip(mats, ref):
                assert_same_arrays(got, want)

    def test_factorization_per_user_effects(self):
        # users with different service and harvest tables, one of them
        # unable to pay for the action at low energy
        sp, arr, level, _ = simple_setup(n_users=2)
        actions = ActionTable(served=np.array([[[1, 2], [0, 3]]]),
                              harvested=np.array([[[0, 1], [2, 0]]]),
                              used_units=np.array([[1, 2]]),
                              p_up=np.ones((1, 2)), p_down=np.ones((1, 2)),
                              rate_down=np.ones((1, 2)),
                              mask_id=np.zeros(1, int),
                              n_active=np.full(1, 16))
        kern = build_kernel(sp, arr, level, actions)
        assert_same_arrays(kernel_matrices(kern)[0],
                           enumerated_kernel(sp, arr, level, actions)[0])

    def test_budget_guard(self, monkeypatch):
        sp = StateSpace(n_users=2, q_max=30, e_max=10, n_levels=3)
        _, arr, level, actions = simple_setup()
        monkeypatch.setattr(dynamics, "MAX_STATES", 1000)
        with pytest.raises(StateSpaceBudgetError):
            build_kernel(sp, arr, level, actions)

    @pytest.mark.parametrize("entries,message", [
        ([0.6, 0.4 + 2e-10], "row sums"),
        ([1.2, -0.2], "negative"),
        ([np.nan, 0.5], "row sums"),
    ], ids=["row-off-by-2e-10", "negative-entry", "nan-row"])
    def test_refuses_a_matrix_that_is_not_stochastic(self, entries,
                                                     message):
        # (user, action, state, next (q, e)) factors: user 1's second
        # action holds the bad row
        good = np.full((2, 2, 2, 2), 0.5)
        bad = good.copy()
        bad[1, 1, 0] = entries
        TransitionKernel(good, np.array([0.3, 0.7]))
        with pytest.raises(ValueError, match=message):
            TransitionKernel(bad, np.array([0.3, 0.7]))

    @pytest.mark.parametrize("levels,message", [
        ([0.3, 0.7 + 2e-10], "row sums"), ([1.2, -0.2], "negative"),
        ([np.nan, 0.5], "row sums")])
    def test_refuses_a_level_pmf_that_is_not_a_distribution(self, levels,
                                                            message):
        with pytest.raises(ValueError, match=message):
            TransitionKernel(np.full((1, 1, 2, 2), 0.5), np.array(levels))

    def test_stores_per_user_factors_only(self):
        # (user, action, per-user state, next (q, e)), and the factors as
        # the sparse matrices that the benchmark counts
        sp, arr, level, actions = simple_setup(n_users=3, q_max=1)
        kern = build_kernel(sp, arr, level, actions)
        n_qe = (sp.q_max + 1) * (sp.e_max + 1)
        assert kern.factors.shape == (3, len(actions), sp.per_user, n_qe)
        assert kern.levels is level.probs
        mats = kern.matrices
        assert len(mats) == 3 * len(actions)
        for (a, u), m in zip(itertools.product(range(len(actions)),
                                               range(3)), mats):
            np.testing.assert_array_equal(m.toarray(), kern.factors[u, a])


@pytest.fixture(params=["unpayable", "three-users"])
def table_case(request, unpayable, three_user_compiled):
    """A compiled scenario whose users cannot always pay."""
    if request.param == "unpayable":
        return unpayable[1]
    return three_user_compiled


def test_action_table_matches_scalar_recursions(table_case):
    # every (user, state, action) entry against the degraded effect and
    # the scalar slot recursions
    space, actions = table_case.space, table_case.actions
    table = user_action_table(space, actions)
    shape = (space.n_users, space.per_user, len(actions))
    for name, values in table._asdict().items():
        assert values.shape == shape, name
    assert table.pays.any() and not table.pays.all()
    one = StateSpace(n_users=1, q_max=space.q_max, e_max=space.e_max,
                     n_levels=space.n_levels)
    for (u, s, a), pays in np.ndenumerate(table.pays):
        ((q, e, lv),) = decode(one, s)
        energies = [space.e_max] * space.n_users
        energies[u] = e
        eff = effective_effect(actions, a, energies)
        served, used = int(eff.served[u, lv]), int(eff.used_units[u])
        harvested = int(eff.harvested[u, lv])
        assert pays == (actions.used_units[a, u] <= e)
        assert (table.served[u, s, a], table.used[u, s, a],
                table.harvested[u, s, a]) == (served, used, harvested)
        assert table.p_up[u, s, a] == float(eff.p_up[u])
        assert table.q_post[u, s, a] == step_queue(q, served, 0, space.q_max)
        assert table.e_next[u, s, a] == step_energy(e, used, harvested,
                                                    space.e_max)


class TestObservations:
    def test_rows_stochastic(self):
        sp, _, level, _ = simple_setup(n_users=2)
        z = build_observation_matrix(sp, level)
        np.testing.assert_allclose(
            np.asarray(z.sum(axis=1)).ravel(), 1.0, atol=1e-12)

    def test_queue_energy_observed_exactly(self):
        sp, _, level, _ = simple_setup()
        z = build_observation_matrix(sp, level).tocsr()
        for idx, ((q, e, lv),) in states(sp):
            row = np.asarray(z.getrow(idx).todense()).ravel()
            for obs in np.nonzero(row)[0]:
                oq, oe, ol = decode(sp, int(obs))[0]
                assert (oq, oe) == (q, e)
                assert row[obs] == pytest.approx(level.obs_confusion[lv, ol])

    def test_matches_joint_enumeration(self):
        for n_users, q_max in ((2, 3), (3, 1)):
            sp, _, level, _ = simple_setup(n_users=n_users, q_max=q_max)
            assert_same_arrays(build_observation_matrix(sp, level),
                               enumerated_observations(sp, level))

    def test_zero_confusion_entries_dropped(self):
        sp = StateSpace(n_users=2, q_max=1, e_max=1, n_levels=3)
        level = LevelModel(probs=np.full(3, 1 / 3),
                           obs_confusion=np.array([[0.8, 0.2, 0.0],
                                                   [0.1, 0.8, 0.1],
                                                   [0.0, 0.3, 0.7]]))
        z = build_observation_matrix(sp, level)
        assert (z.data > 0).all()
        assert_same_arrays(z, enumerated_observations(sp, level))

    @pytest.mark.parametrize("fixture", ["desk_1600", "three_user_compiled"])
    def test_csr_equals_the_converted_csc_product(self, fixture, request):
        # the CSC build that PomdpModel converted per action, so that the
        # solves read the same arrays
        compiled = request.getfixturevalue(fixture)
        space, level = compiled.space, compiled.level
        z = build_observation_matrix(space, level)
        assert_same_arrays(z, level_map_matrix(space, level.obs_confusion,
                                               "csc").tocsr())

    def test_identity_confusion_is_identity(self):
        sp = StateSpace(n_users=1, q_max=2, e_max=1, n_levels=2)
        level = LevelModel(probs=np.array([0.5, 0.5]), obs_confusion=np.eye(2))
        z = build_observation_matrix(sp, level)
        np.testing.assert_array_equal(z.toarray(), np.eye(sp.size))


@pytest.fixture(scope="module")
def desk_1600():
    return compile_scenario(desk_scenario(q_max=4, e_max=3))


class TestLevelModel:
    def test_rejects_bad_pmf(self):
        with pytest.raises(ValueError):
            LevelModel(probs=np.array([0.5, 0.6]), obs_confusion=np.eye(2))

    def test_rejects_bad_confusion(self):
        with pytest.raises(ValueError):
            LevelModel(probs=np.array([0.5, 0.5]),
                       obs_confusion=np.array([[0.9, 0.2], [0.2, 0.8]]))

    def test_rejects_nan_rows(self):
        # an empty calibration bin gave a 0 probability and a 0/0 row
        with pytest.raises(ValueError, match="pmf"):
            LevelModel(probs=np.array([np.nan, 0.5]), obs_confusion=np.eye(2))
        with pytest.raises(ValueError, match="confusion rows"):
            LevelModel(probs=np.array([1.0, 0.0]),
                       obs_confusion=np.array([[1.0, 0.0], [np.nan] * 2]))
