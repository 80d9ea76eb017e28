import functools

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import bicgstab as scipy_linalg_bicgstab

from oracles import (DEFAULT_PRUNE_MARGIN, ImpossibleObservationError,
                     ObservationMdp, OracleScaleError, constant_layer,
                     dense_fib_q, dense_fib_sweep, dense_mdp_value,
                     dense_policy_value, exact_value_iteration,
                     explicit_model, kernel_matrices, layer_matrices,
                     observation_prob, pair_policy_alphas, reference_backup,
                     reference_initial_bounds, reference_kernel_matrices,
                     reference_mdp_corners, reference_observation_policy,
                     reference_policy_alphas, reference_policy_rows,
                     reference_propagate, reference_successor_posts,
                     root_seeds_off, update_belief)
from test_acceptance import (SPARSE_Z_MEMBER, ZOO_DIMS, ZOO_HORIZON,
                             ZOO_PRUNE_MARGIN, _zoo_pomdp, zoo_exact)

from swiptctl.pomdp import (AlphaVector, BoundPair, LowerBound, PomdpModel,
                            UpperBound, backup, excess_uncertainty,
                            initial_bounds, q_values, solve_hsvi)
from swiptctl.pomdp import solver
from swiptctl.pomdp.model import check_stochastic, emitted
from swiptctl.scenario import compile_scenario, desk_scenario


def tiger_model(discount=0.6):
    """Two hidden states, a probing action and two guessing actions."""
    T = [np.eye(2), np.full((2, 2), 0.5), np.full((2, 2), 0.5)]
    Z = [np.array([[0.85, 0.15], [0.15, 0.85]]),
         np.full((2, 2), 0.5), np.full((2, 2), 0.5)]
    cost = np.array([[1.0, 110.0, -10.0],
                     [1.0, -10.0, 110.0]])
    return PomdpModel(transitions=T, observations=Z, cost=cost,
                      discount=discount)


def chain_model(discount=0.9):
    """Three states, fully observed, deterministic drift; analytic values."""
    T = [np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
         np.eye(3)]
    Z = [np.eye(3)] * 2
    cost = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    return PomdpModel(transitions=T, observations=Z, cost=cost,
                      discount=discount)


def hidden_pair_model(discount=0.8):
    """States 0 and 1 look alike and swap at random; state 2 is absorbing
    and costly, and only it emits observation 1. From a belief on {0, 1}
    observation 1 cannot occur, although state 2 emits it."""
    T = [np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])] * 2
    Z = [np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])] * 2
    cost = np.array([[-1.0, 1.0], [1.0, -1.0], [10.0, 10.0]])
    return PomdpModel(transitions=T, observations=Z, cost=cost,
                      discount=discount)


def positive_chain_model(discount=0.9):
    """The chain with negative costs: every value is positive, so value
    iteration that climbs from 0 stops below the MDP value."""
    m = chain_model(discount)
    return PomdpModel(transitions=m.transitions, observations=m.observations,
                      cost=m.cost - 3.0, discount=discount)


SMALL_MODELS = {"tiger": tiger_model, "chain": chain_model,
                "hidden-pair": hidden_pair_model,
                "positive-chain": positive_chain_model}
# exact value iteration per small model: (horizon, prune margin)
EXACT_RUNS = {"tiger": (30, 1e-5), "chain": (100, DEFAULT_PRUNE_MARGIN),
              "hidden-pair": (80, DEFAULT_PRUNE_MARGIN),
              "positive-chain": (100, DEFAULT_PRUNE_MARGIN)}


@functools.cache
def exact_solution(name):
    """Exact value iteration on a small model, once per session, with its
    error allowance: the truncation of the horizon plus the prune margin
    of every step."""
    m = SMALL_MODELS[name]()
    horizon, margin = EXACT_RUNS[name]
    delta = (m.discount ** horizon * np.abs(m.cost).max() + margin) \
        / (1.0 - m.discount)
    return exact_value_iteration(m, horizon, prune_margin=margin), delta


def value_tol(v) -> float:
    """Round-off allowance when comparing computed values: the residual
    certificates and the dense solves are exact only to about a few
    hundred ulps of the largest value."""
    return 1e-13 * max(1.0, float(np.abs(v).max()))


def exact_mdp_values(m):
    """(exact blind-policy values, one row per action; exact MDP value)."""
    blind = np.array([dense_policy_value(m, np.full(m.n_states, a))
                      for a in range(m.n_actions)])
    return blind, dense_mdp_value(m)


class TestModel:
    def test_validation(self):
        T = [np.array([[0.6, 0.5], [0.5, 0.5]])]
        with pytest.raises(ValueError):
            PomdpModel(transitions=T, observations=[np.eye(2)],
                       cost=np.zeros((2, 1)), discount=0.9)
        with pytest.raises(ValueError):
            PomdpModel(transitions=[np.eye(2)], observations=[np.eye(2)],
                       cost=np.zeros((2, 1)), discount=1.0)
        with pytest.raises(ValueError):
            PomdpModel(transitions=[np.eye(2)], observations=[np.eye(2)],
                       cost=np.full((2, 1), np.inf), discount=0.9)

    @pytest.mark.parametrize("which", ["transitions", "observations"])
    def test_refuses_a_nan_row(self, which):
        mats = {"transitions": [np.eye(2)], "observations": [np.eye(2)]}
        mats[which] = [np.array([[1.0, 0.0], [np.nan, 0.5]])]
        with pytest.raises(ValueError, match="stochastic"):
            PomdpModel(**mats, cost=np.zeros((2, 1)), discount=0.9)

    def test_a_shared_matrix_is_checked_and_indexed_once(self, monkeypatch):
        t = sparse.csr_matrix(np.full((3, 3), 1.0 / 3.0))
        # row 0 stores its columns out of order
        z = sparse.csr_matrix(([0.5, 0.5, 1.0, 1.0], [1, 0, 2, 1],
                               [0, 2, 3, 4]), shape=(3, 3))
        sums = []
        summed = sparse.csr_matrix.sum

        def counted(m, *args, **kwargs):
            sums.append(id(m))
            return summed(m, *args, **kwargs)

        monkeypatch.setattr(sparse.csr_matrix, "sum", counted)
        m = PomdpModel(transitions=[t] * 4, observations=[z] * 4,
                       cost=np.zeros((3, 4)), discount=0.9)
        assert sorted(sums) == sorted([id(t), id(z)])
        assert all(rows is m.obs_rows[0] for rows in m.obs_rows)
        assert z.has_sorted_indices
        np.testing.assert_array_equal(z.indices, [0, 1, 2, 1])
        np.testing.assert_array_equal(m.obs_rows[0], [0, 0, 1, 2])
        # and a shared matrix still fails the check
        bad = sparse.csr_matrix(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="stochastic"):
            PomdpModel(transitions=[np.eye(2)] * 2, observations=[bad] * 2,
                       cost=np.zeros((2, 2)), discount=0.9)

    def test_posterior_table_check(self):
        # both states are read exactly, so the model is closed; Z never
        # emits observation 2, so its row is never read and may hold
        # anything, NaN included. The model checks the table's shape; the
        # row check, run where a table is built, covers the emitted rows.
        z = sparse.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        kw = dict(transitions=[np.full((2, 2), 0.5)], observations=[z],
                  cost=np.zeros((2, 1)), discount=0.9)
        good = np.array([[1.0, 0.0], [0.0, 1.0], [np.nan, 0.25]])
        m = PomdpModel(**kw, posteriors=good)
        assert isinstance(m.posteriors, sparse.csr_matrix)
        np.testing.assert_array_equal(m.emitted, [True, True, False])
        for post in (good[:2], good.T):
            with pytest.raises(ValueError, match="posteriors"):
                PomdpModel(**kw, posteriors=post)
        live = emitted([z])
        np.testing.assert_array_equal(live, m.emitted)
        assert check_stochastic(good, live) is good
        off, nan, inf = good.copy(), good.copy(), good.copy()
        off[0, 1] = 1e-9                    # 1e-9 above a stochastic row
        nan[1, 0], inf[0, 0] = np.nan, np.inf
        for post in (off, nan, inf):
            with pytest.raises(ValueError, match="stochastic"):
                check_stochastic(post, live)
        # the closed sweep reads no row that Z never emits: the NaN row
        # switches no choice, and FIB is the per-entry one
        _hq, c, moved = solver._closed_sweep(m, np.zeros((2, 1)),
                                             np.zeros(3, dtype=int))
        assert not moved and not c.any()
        np.testing.assert_allclose(fib_seed(m), fib_seed(PomdpModel(**kw)),
                                   rtol=0, atol=1e-12)

    def test_reward_is_negated_cost(self):
        m = tiger_model()
        np.testing.assert_array_equal(m.reward, -m.cost)

    def test_propagate(self):
        m = tiger_model()
        b = np.array([0.3, 0.7])
        np.testing.assert_allclose(m.propagate(b, 1), [0.5, 0.5])
        np.testing.assert_allclose(m.propagate(b, 0), b)

    def test_update_belief_hand_computed(self):
        m = tiger_model()
        b = update_belief(np.array([0.5, 0.5]), 0, 0, m)
        np.testing.assert_allclose(b, [0.85, 0.15])
        b2 = update_belief(b, 0, 0, m)
        post = np.array([0.85 * 0.85, 0.15 * 0.15])
        np.testing.assert_allclose(b2, post / post.sum())

    def test_update_belief_normalized(self):
        m = tiger_model()
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = rng.dirichlet([1, 1])
            for a in range(3):
                for o in range(2):
                    nb = update_belief(b, a, o, m)
                    assert abs(nb.sum() - 1.0) < 1e-12
                    assert (nb >= 0).all()

    def test_impossible_observation(self):
        T = [np.eye(2)]
        Z = [np.array([[1.0, 0.0], [1.0, 0.0]])]
        m = PomdpModel(transitions=T, observations=Z,
                       cost=np.zeros((2, 1)), discount=0.9)
        with pytest.raises(ImpossibleObservationError):
            update_belief(np.array([0.5, 0.5]), 0, 1, m)

    def test_observation_prob_consistent(self):
        m = tiger_model()
        b = np.array([0.4, 0.6])
        for a in range(3):
            total = sum(observation_prob(o, a, b, m) for o in range(2))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestBounds:
    def test_alpha_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AlphaVector(values=np.array([1.0, np.nan]), action=0)

    def test_lower_bound_ties_lowest_index(self):
        lb = LowerBound([AlphaVector(np.array([1.0, 0.0]), action=2),
                         AlphaVector(np.array([1.0, 0.0]), action=1)])
        val, action, idx = lb.best(np.array([1.0, 0.0]))
        assert (val, action, idx) == (1.0, 2, 0)

    def test_lower_prune_pointwise(self):
        lb = LowerBound([AlphaVector(np.array([1.0, 1.0]), 0),
                         AlphaVector(np.array([0.5, 0.5]), 1),
                         AlphaVector(np.array([2.0, 0.0]), 2)])
        assert lb.prune_pointwise() == 1
        assert len(lb) == 2

    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e4, 1e8])
    def test_lower_prune_pointwise_keeps_the_envelope_at_any_offset(
            self, offset):
        # an absolute margin rounds away above about 128, where every
        # alpha would drop itself; dominance is tested against the others
        rows = [[1.0, 0.0], [0.0, 1.0], [0.6, 0.6], [0.5, 0.6], [1.0, 0.0]]
        lb = LowerBound([AlphaVector(offset + np.array(r), i)
                         for i, r in enumerate(rows)])
        # row 3 is dominated and row 4 repeats row 0: the first is kept
        assert lb.prune_pointwise() == 2
        assert [a.action for a in lb.alphas] == [0, 1, 2]

    def test_upper_corner_exact(self):
        ub = UpperBound(np.array([3.0, 7.0]))
        assert ub.value(np.array([1.0, 0.0])) == 3.0
        assert ub.value(np.array([0.5, 0.5])) == 5.0

    def test_upper_point_interpolates(self):
        ub = UpperBound(np.array([0.0, 10.0]))
        assert ub.add(np.array([0.5, 0.5]), 2.0)
        # halfway toward the corner scales the improvement linearly
        assert ub.value(np.array([0.25, 0.75])) == pytest.approx(6.0)
        assert ub.value(np.array([0.5, 0.5])) == pytest.approx(2.0)

    def test_upper_add_rejects_nonimproving(self):
        ub = UpperBound(np.array([0.0, 10.0]))
        assert not ub.add(np.array([0.5, 0.5]), 5.0)

    def test_upper_prune_redundant(self):
        ub = UpperBound(np.array([0.0, 10.0]))
        ub.add(np.array([0.5, 0.5]), 2.0)
        # redundant hand-inserted point: gain = 4 - corner-average 5 = -1
        ub.points.append((np.array([0.5, 0.5]), 4.0, np.array([0, 1]), -1.0))
        assert ub.prune() == 1
        assert ub.value(np.array([0.5, 0.5])) == pytest.approx(2.0)

    def test_sandwich_audit_raises(self):
        pair = BoundPair(lower=LowerBound([AlphaVector(np.array([5.0, 5.0]), 0)]),
                         upper=UpperBound(np.array([0.0, 0.0])))
        with pytest.raises(AssertionError):
            pair.audit(np.array([0.5, 0.5]))
        assert pair.worst_violation == pytest.approx(5.0)

    def test_audit_returns_the_gap(self):
        pair = initial_bounds(tiger_model())
        for b in np.random.default_rng(2).dirichlet([1, 1], size=5):
            assert pair.audit(b) == pair.gap(b)

    def test_prune_witness_matches_stacked_corners(self):
        # integer entries make ties; the kept set and order must equal the
        # argmax over the corner beliefs stacked above the witnesses
        rng = np.random.default_rng(3)
        vals = rng.integers(0, 3, size=(12, 5)).astype(float)
        wit = rng.dirichlet(np.ones(5), size=4)
        lb = LowerBound([AlphaVector(v, i) for i, v in enumerate(vals)])
        best = np.argmax(vals @ np.vstack([np.eye(5), wit]).T, axis=0)
        removed = lb.prune_witness(wit)
        assert [a.action for a in lb.alphas] == sorted(set(best))
        assert removed == 12 - len(set(best))


def reference_value(ub, b, points):
    """Sawtooth value at b, one point at a time."""
    base = float(ub.corner @ b)
    best = base
    for (bp, _vp, sup, gain) in points:
        if gain >= 0.0:
            continue
        c = np.min(b[sup] / bp[sup])
        cand = base + c * gain
        if cand < best:
            best = cand
    return best


def reference_value_many(ub, posts):
    """Sawtooth values at the rows of sparse ``posts``, one dense
    (rows, support) block per point."""
    base = np.asarray(posts @ ub.corner).ravel()
    best = base.copy()
    pc = posts.tocsc()
    for (bp, _vp, sup, gain) in ub.points:
        if gain >= 0.0:
            continue
        block = np.zeros((base.size, sup.size))
        for jj, s in enumerate(sup):
            lo, hi = pc.indptr[s], pc.indptr[s + 1]
            block[pc.indices[lo:hi], jj] = pc.data[lo:hi]
        c = (block / bp[sup]).min(axis=1)
        np.minimum(best, base + c * gain, out=best)
    return best


def reference_prune(ub):
    """The points prune keeps, each tested against the kept ones before it
    and all the points after it."""
    kept = []
    for i, pt in enumerate(ub.points):
        if pt[1] < reference_value(ub, pt[0], kept + ub.points[i + 1:]) \
                - 1e-12:
            kept.append(pt)
    return kept


@pytest.fixture(scope="module")
def tiger_case():
    m = tiger_model()
    res = solve_hsvi(m, np.array([0.5, 0.5]), eps=1e-3, max_iterations=8)
    grid = np.linspace(0.0, 1.0, 41)
    beliefs = np.vstack([np.column_stack([grid, 1.0 - grid])]
                        + [p[0] for p in res.bounds.upper.points])
    return res.bounds.upper, beliefs


@pytest.fixture(scope="module")
def desk_compiled_small():
    """The 1600-state desk scenario."""
    return compile_scenario(desk_scenario(q_max=4, e_max=3))


def jopt_model(compiled):
    """The j-opt baseline's model of ``compiled`` and its uniform initial
    belief."""
    from swiptctl.control import layer_model, uniform_initial_belief
    from swiptctl.harness import baseline_cost_table, default_constraints
    cost = baseline_cost_table("j-opt", compiled,
                               default_constraints(compiled.config))
    model = layer_model(compiled, constant_layer(compiled), cost)
    return model, uniform_initial_belief(compiled)


@pytest.fixture(scope="module")
def desk_jopt_model(desk_compiled_small):
    """The 1600-state desk j-opt model and its uniform initial belief."""
    return jopt_model(desk_compiled_small)


@pytest.fixture(scope="module")
def desk_jopt_case(desk_jopt_model):
    """Upper bound of a 3-iteration j-opt solve on the 1600-state desk
    model, with posteriors, point beliefs and corner beliefs to test. The
    root seeds certify the root at any eps, so the solve starts without
    them and explores."""
    model, b0 = desk_jopt_model
    with root_seeds_off():
        upper = solve_hsvi(model, b0, eps=0.5, max_iterations=3).bounds.upper
    assert model.n_states == 1600 and len(upper.points) >= 3
    points = np.array([p[0] for p in upper.points])
    wide = next(p for p in upper.points if p[2].size > 1)
    # corners inside a multi-state support: coefficient 0 for that point
    corners = np.eye(model.n_states)[wide[2][:3]]
    posts = [rows for b in (b0, points[0], points[-1])
             for (_r, _a, _p, rows) in solver._expand(b, model)]
    beliefs = sparse.vstack(posts + [sparse.csr_matrix(points),
                                     sparse.csr_matrix(corners)]).tocsr()
    return upper, beliefs


@pytest.fixture(scope="module")
def mixed_support_case():
    """Hand-built points on 4 states with supports of 1 to 4 states."""
    rng = np.random.default_rng(5)
    upper = UpperBound(rng.uniform(5.0, 10.0, 4))
    for size in (1, 2, 3, 4, 2, 3, 1):
        b = np.zeros(4)
        b[rng.choice(4, size, replace=False)] = rng.dirichlet(np.ones(size))
        upper.add(b, float(upper.corner @ b) - rng.uniform(0.5, 2.0))
    assert len({p[2].size for p in upper.points}) == 4
    beliefs = np.vstack([rng.dirichlet(np.ones(4), 30), np.eye(4)]
                        + [p[0] for p in upper.points])
    return upper, beliefs


@pytest.fixture(params=["tiger", "desk-jopt", "mixed-supports"])
def sawtooth_case(request, tiger_case, desk_jopt_case, mixed_support_case):
    upper, beliefs = {"tiger": tiger_case, "desk-jopt": desk_jopt_case,
                      "mixed-supports": mixed_support_case}[request.param]
    return upper, sparse.csr_matrix(beliefs)


class TestSawtoothAgainstPerPointLoop:
    def test_value_many(self, sawtooth_case):
        upper, beliefs = sawtooth_case
        got = upper.value_many(beliefs)
        np.testing.assert_array_equal(got,
                                      reference_value_many(upper, beliefs))
        # some rows gain from a point, some sit on the corner baseline
        base = beliefs @ upper.corner
        assert (got < base).any() and (got == base).any()
        # the support columns are gathered from any sparse format
        np.testing.assert_array_equal(upper.value_many(beliefs.tocsc()), got)
        # without an improving point every row sits on the baseline
        np.testing.assert_array_equal(
            UpperBound(upper.corner).value_many(beliefs), base)

    def test_value(self, sawtooth_case):
        upper, beliefs = sawtooth_case
        for b in beliefs.toarray():
            assert upper.value(b) == reference_value(upper, b, upper.points)

    def test_prune_keeps_the_same_points_in_order(self, sawtooth_case):
        upper, beliefs = sawtooth_case
        points = list(upper.points)
        # a redundant copy, 0.5 above, after every other point
        padded = []
        for i, (bp, vp, sup, gain) in enumerate(points):
            padded.append(points[i])
            if i % 2 == 0:
                padded.append((bp, vp + 0.5, sup, gain + 0.5))
        for pts in (points, padded):
            ub = UpperBound(upper.corner)
            ub.points = list(pts)
            want = reference_prune(ub)
            removed = ub.prune()
            assert removed == len(pts) - len(want)
            assert len(ub.points) == len(want)
            assert all(a is b for a, b in zip(ub.points, want))
            # evaluations after the prune read the regrouped points
            np.testing.assert_array_equal(ub.value_many(beliefs),
                                          reference_value_many(ub, beliefs))
        assert removed >= len(points) // 2


@pytest.fixture(params=list(SMALL_MODELS) + ["desk-jopt"])
def bound_model(request, desk_jopt_model):
    if request.param == "desk-jopt":
        return desk_jopt_model[0]
    return SMALL_MODELS[request.param]()


def scipy_bicgstab(matvec, b, x0, maxiter=None):
    """scipy's BiCGSTAB with the solver's stopping rule: the oracle that
    ``solver.bicgstab`` ports."""
    n = np.asarray(b).size
    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    return scipy_linalg_bicgstab(op, b, x0=x0, rtol=solver.KRYLOV_RTOL,
                                 atol=0.0, maxiter=maxiter)[0]


class TestKrylovPort:
    """The in-house BiCGSTAB returns scipy's array bit for bit."""

    def test_every_seed_solve_on_the_desk_model(self, desk_jopt_model,
                                                monkeypatch):
        m, b0 = desk_jopt_model
        own, sizes = solver.bicgstab, []

        def both(matvec, b, x0, maxiter=None):
            got = own(matvec, b, x0, maxiter=maxiter)
            np.testing.assert_array_equal(
                got, scipy_bicgstab(matvec, b, x0, maxiter=maxiter),
                strict=True)
            sizes.append(got.size)
            return got

        monkeypatch.setattr(solver, "bicgstab", both)
        initial_bounds(m, b0, 0.0)
        # the blind alphas, the corners' policy iteration, and the stacked
        # operator of the policy alphas
        assert sizes[:m.n_actions] == [m.n_states] * m.n_actions
        assert m.n_actions * m.n_states in sizes

    @pytest.mark.parametrize("case", ["zero-x0", "zero-rhs", "maxiter-1",
                                      "singular"])
    def test_edge_cases(self, desk_jopt_model, case):
        m = desk_jopt_model[0]
        g, r = m.discount, m.reward[:, 0]
        x0, maxiter = r / (1.0 - g), None
        matvec = lambda v: v - g * m.apply(0, v)       # noqa: E731
        if case == "zero-x0":
            x0 = np.zeros(m.n_states)
        elif case == "zero-rhs":
            r = np.zeros(m.n_states)
        elif case == "maxiter-1":
            maxiter = 1
        else:       # v = A p = 0 in the first step: the rv == 0 breakdown
            matvec = np.zeros_like
        got = solver.bicgstab(matvec, r, x0, maxiter=maxiter)
        np.testing.assert_array_equal(
            got, scipy_bicgstab(matvec, r, x0, maxiter=maxiter), strict=True)


class TestInitialBounds:
    def test_certified_against_value_iteration_and_exact(self, bound_model):
        m = bound_model
        bounds, ref = initial_bounds(m), reference_initial_bounds(m)
        blind, mdp = exact_mdp_values(m)
        tol = value_tol(mdp)
        alphas = bounds.lower.matrix()
        assert [a.action for a in bounds.lower.alphas] == \
            list(range(m.n_actions))
        # at least as tight as value iteration, and still below the values
        assert (alphas >= ref.lower.matrix() - tol).all()
        assert (alphas <= blind + tol).all()
        # above the MDP value, where value iteration can stop below it
        assert (bounds.upper.corner >= mdp - tol).all()
        assert (bounds.upper.corner <= mdp + tol).all()

    def test_corners_gather_the_policy_rows_bit_for_bit(self, seed_model):
        # the policy matvec keeps row pi[s] of every action's product, and
        # the Q-table is one ``after``: against the per-action gather of
        # explicit rows and one product per action (on a Kronecker model,
        # one ``apply`` per action, row pi[s] kept)
        m = seed_model
        blind = solver._blind_alphas(m)
        got = solver._mdp_corners(m, blind)
        for g, w in zip(got, reference_mdp_corners(m, blind)):
            np.testing.assert_array_equal(g, w)       # corners, Q-table

    def test_value_iteration_corners_undershoot_positive_values(self):
        m = positive_chain_model()
        mdp = exact_mdp_values(m)[1]
        assert (mdp > 0.0).all()
        assert (reference_initial_bounds(m).upper.corner < mdp - 1e-10).any()

    def test_certificates_alone_keep_the_bounds_valid(self, desk_jopt_model,
                                                      monkeypatch):
        m = desk_jopt_model[0]
        monkeypatch.setattr(solver, "bicgstab",
                            functools.partial(solver.bicgstab, maxiter=1))
        capped = initial_bounds(m)
        blind, mdp = exact_mdp_values(m)
        # one Krylov step leaves residuals of order one: the shifted
        # bounds are loose, and valid
        assert (capped.lower.matrix() <= blind).all()
        assert (capped.upper.corner >= mdp).all()
        assert (capped.upper.corner - mdp).min() > 1.0


def qmdp_policy_alphas(m):
    """The solver's observation policy and its certified policy alphas,
    one row per action."""
    _corners, q = solver._mdp_corners(m, solver._blind_alphas(m))
    pi = solver._observation_policy(m, q)
    alphas = solver._policy_alphas(m, pi, q)
    assert [a.action for a in alphas] == list(range(m.n_actions))
    return pi, np.array([a.values for a in alphas])


SEED_MODELS = list(SMALL_MODELS) + ["desk-jopt"] + [
    f"zoo-{i}" for i in range(len(ZOO_DIMS))]


@pytest.fixture(params=SEED_MODELS)
def seed_model(request, desk_jopt_model):
    """Every ``bound_model`` and every zoo member."""
    if request.param.startswith("zoo-"):
        return _zoo_pomdp(int(request.param[4:]))
    if request.param == "desk-jopt":
        return desk_jopt_model[0]
    return SMALL_MODELS[request.param]()


@pytest.fixture(scope="module")
def two_mask_small():
    """The 1600-state desk scenario with two antenna masks."""
    return compile_scenario(desk_scenario(q_max=4, e_max=3, calib_draws=80,
                                          mask_sizes=(8, 16)))


# the scenarios whose kernels the layout tests read, by fixture name
LAYOUT_SCENARIOS = {"desk-jopt": "desk_compiled_small",
                    "two-mask": "two_mask_small",
                    "three-user": "three_user_compiled"}


@pytest.fixture(params=list(LAYOUT_SCENARIOS))
def layout_compiled(request):
    return request.getfixturevalue(LAYOUT_SCENARIOS[request.param])


@pytest.fixture(params=["tiger", *LAYOUT_SCENARIOS])
def layout_model(request):
    """Tiger, whose listen action has its own observation matrix, and the
    j-opt model over every action of each layout scenario."""
    if request.param == "tiger":
        return tiger_model()
    return jopt_model(
        request.getfixturevalue(LAYOUT_SCENARIOS[request.param]))[0]


def assert_same_csr(got, want):
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype, part
        np.testing.assert_array_equal(a, b, err_msg=part)


class TestStackedLayout:
    """The kernel's factors materialize to the per-action build bit for
    bit, and the seeds give the per-action seeds' arrays bit for bit."""

    def test_kernel_blocks_are_views_of_the_per_action_matrices(
            self, layout_compiled):
        compiled = layout_compiled
        kernel = compiled.kernel
        want = reference_kernel_matrices(compiled.space, compiled.arrival_pmf,
                                         compiled.level, compiled.actions)
        got = kernel_matrices(kernel)
        assert len(got) == len(want)
        for mat, ref in zip(got, want):
            assert_same_csr(mat, ref)
        # the layer over every action reads the kernel's factors in place
        model = jopt_model(compiled)[0]
        assert np.shares_memory(model.transitions.factors, kernel.factors)
        for mat, ref in zip(layer_matrices(model.transitions), want):
            assert_same_csr(mat, ref)

    def test_gathered_rows(self, layout_model):
        # the policy matvec keeps row pi[s] of every action's product: the
        # rows of the per-action gather, bit for bit on explicit matrices,
        # to round-off on Kronecker factors (and there bit for bit the
        # per-action products' rows)
        m = layout_model
        rng = np.random.default_rng(m.n_states)
        states = np.arange(m.n_states)
        x = rng.normal(size=m.n_states)
        every = m.after(x)
        explicit = explicit_model(m).transitions
        for pi in (rng.integers(m.n_actions, size=m.n_states),
                   np.full(m.n_states, m.n_actions - 1)):
            got = every[pi, states]
            want = reference_policy_rows(explicit, pi) @ x
            if m.factored:
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-14 * np.abs(x).max())
                want = np.array([m.apply(a, x)
                                 for a in range(m.n_actions)])[pi, states]
            np.testing.assert_array_equal(got, want)

    def test_seeds_match_the_per_action_solves(self, layout_model):
        m = layout_model
        blind = solver._blind_alphas(m)
        corners, q = solver._mdp_corners(m, blind)
        want_corners, want_q = reference_mdp_corners(m, blind)
        np.testing.assert_array_equal(corners, want_corners)
        np.testing.assert_array_equal(q, want_q)
        pi = solver._observation_policy(m, q)
        np.testing.assert_array_equal(pi, reference_observation_policy(m, q))
        rng = np.random.default_rng(m.n_states)
        for policy in (pi, rng.integers(m.n_actions, size=m.n_obs)):
            got = solver._policy_alphas(m, policy, q)
            np.testing.assert_array_equal(
                np.array([a.values for a in got]),
                reference_policy_alphas(m, policy, q))


@pytest.fixture(scope="module")
def one_user_small():
    """A 36-state desk scenario with one user."""
    return compile_scenario(desk_scenario(k=1, q_max=2, e_max=2,
                                          calib_draws=80))


# one compiled scenario per user count, by fixture name
KRONECKER_SCENARIOS = {1: "one_user_small", 2: "two_mask_small",
                       3: "three_user_compiled"}


class TestKroneckerProducts:
    """A layer model's mode products against the CSR matrices materialized
    from the kernel's factors, to within 1e-14 of scale."""

    @pytest.mark.parametrize("layer", ["inner", "outer"])
    @pytest.mark.parametrize("k", list(KRONECKER_SCENARIOS))
    def test_match_the_materialized_kernel(self, request, k, layer):
        from swiptctl.control import layer_model
        from swiptctl.harness import baseline_cost_table, default_constraints
        compiled = request.getfixturevalue(KRONECKER_SCENARIOS[k])
        assert compiled.config.k == k
        n, n_a = compiled.space.size, compiled.n_actions
        rng = np.random.default_rng(k)
        # a power layer plays each action everywhere (here not a run of the
        # table); a selection layer gathers rows of several actions
        chosen = (constant_layer(compiled, np.arange(n_a)[::-1])
                  if layer == "inner" else rng.integers(n_a, size=(3, n)))
        cost = baseline_cost_table("j-opt", compiled,
                                   default_constraints(compiled.config))
        model = layer_model(compiled, chosen, cost)
        assert (model.transitions.chosen is None) == (layer == "inner")
        stacked = sparse.vstack(kernel_matrices(compiled.kernel),
                                format="csr")
        mats = [stacked[row * n + np.arange(n)] for row in chosen]
        v = 100.0 * rng.normal(size=n)
        b = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.3)
        b /= b.sum()
        after = model.after(v)
        np.testing.assert_array_equal(model.after(v[None]), after)
        for i, t in enumerate(mats):
            np.testing.assert_allclose(after[i], t @ v, rtol=0,
                                       atol=1e-14 * np.abs(v).max())
            # one action's product is its row of every action's, bit for bit
            np.testing.assert_array_equal(model.apply(i, v), after[i])
            tau = model.propagate(b, i)
            np.testing.assert_allclose(tau, t.T @ b, rtol=0, atol=1e-14)
            assert tau.sum() == pytest.approx(1.0, abs=1e-12)

    def test_a_model_without_posteriors_is_refused(self, desk_jopt_model):
        # the per-entry fast informed bound, which an unclosed model runs,
        # reads explicit matrices
        m = desk_jopt_model[0]
        with pytest.raises(ValueError, match="ROADMAP item 5"):
            PomdpModel(m.transitions, m.observations, m.cost, m.discount)
        # with them, or with the materialized matrices, it is built
        PomdpModel(m.transitions, m.observations, m.cost, m.discount,
                   m.posteriors)
        PomdpModel(explicit_model(m).transitions, m.observations, m.cost,
                   m.discount)


class TestPolicyAlphas:
    """The alphas of "play a, then follow pi" against the exact value of
    that policy on the (state, observation)-pair chain."""

    def test_below_and_at_the_pair_chain_value(self, seed_model):
        m = seed_model
        pi, got = qmdp_policy_alphas(m)
        exact = pair_policy_alphas(m, pi)
        tol = value_tol(exact)
        assert (got <= exact + tol).all()
        # the Krylov solve got there; only the certificate's shift is left
        assert (got >= exact - 1e3 * tol).all()

    def test_any_observation_policy_gives_valid_alphas(self, seed_model):
        m = seed_model
        pi = np.random.default_rng(m.n_states).integers(m.n_actions,
                                                        size=m.n_obs)
        alphas = solver._policy_alphas(m, pi, np.zeros((m.n_states,
                                                        m.n_actions)))
        exact = pair_policy_alphas(m, pi)
        assert (np.array([a.values for a in alphas])
                <= exact + value_tol(exact)).all()

    def test_certificates_alone_keep_the_alphas_valid(self, seed_model,
                                                      monkeypatch):
        m = seed_model
        monkeypatch.setattr(solver, "bicgstab",
                            functools.partial(solver.bicgstab, maxiter=1))
        # pi comes from the capped MDP Q; the oracle evaluates the same pi
        pi, capped = qmdp_policy_alphas(m)
        exact = pair_policy_alphas(m, pi)
        assert (capped <= exact + value_tol(exact)).all()

    def test_seeded_only_above_eps(self, desk_jopt_model):
        m, b0 = desk_jopt_model
        blind = initial_bounds(m)
        gap = blind.gap(b0)
        assert len(initial_bounds(m, b0, gap).lower) == m.n_actions
        seeded = initial_bounds(m, b0, 5.0)
        assert len(seeded.lower) == 2 * m.n_actions
        assert seeded.lower.value(b0) > blind.lower.value(b0) + 1.0
        assert seeded.gap(b0) <= 5.0
        # so the solve certifies at the root and explores nothing
        res = solve_hsvi(m, b0, eps=5.0)
        assert res.converged and res.iterations == 0 and res.log == []


def fib_seed(m):
    """The solver's fast informed bound Q-table, started as
    ``initial_bounds`` starts it: at the QMDP observation policy and its
    certified alphas."""
    _corners, q = solver._mdp_corners(m, solver._blind_alphas(m))
    pi = solver._observation_policy(m, q)
    alphas = np.array([a.values for a in solver._policy_alphas(m, pi, q)]).T
    return solver._fib_q(m, pi, alphas)


@pytest.fixture(params=SEED_MODELS)
def fib_case(request, desk_jopt_model, desk_compiled_small):
    """A seed model, its uniform root belief, and the exact POMDP value at
    every corner belief and at the root, with an error allowance."""
    name = request.param
    if name == "desk-jopt":
        m, b0 = desk_jopt_model
        exact = ObservationMdp(desk_compiled_small, m)
        v = exact.solve()[0]
        corners, root = exact.corner_values(v), exact.root(b0, v)
        return m, b0, corners, root, 1e-9 * np.abs(corners).max()
    if name.startswith("zoo-"):
        i = int(name[4:])
        m, sol = _zoo_pomdp(i), zoo_exact(i)[0]
        delta = (m.discount ** ZOO_HORIZON * np.abs(m.cost).max()
                 + ZOO_PRUNE_MARGIN) / (1.0 - m.discount)
    else:
        m = SMALL_MODELS[name]()
        sol, delta = exact_solution(name)
    b0 = np.full(m.n_states, 1.0 / m.n_states)
    return m, b0, sol.alphas.max(axis=0), sol.value(b0), delta


@functools.cache
def desk_tiny_model():
    """An 8-state desk j-opt model (1 user, q_max = e_max = 1)."""
    return jopt_model(compile_scenario(desk_scenario(k=1, q_max=1,
                                                     e_max=1)))[0]


def dense_sized_model(name):
    """A model small enough for the dense FIB operator: a small model, the
    8-state desk model or a zoo member."""
    if name.startswith("zoo-"):
        return _zoo_pomdp(int(name[4:]))
    return desk_tiny_model() if name == "desk-tiny" else SMALL_MODELS[name]()


DENSE_MODELS = list(SMALL_MODELS) + ["desk-tiny"] + [
    f"zoo-{i}" for i in range(len(ZOO_DIMS))]


def keep_zero(a, obs):
    """A previous choice of action 0 at every entry."""
    return np.zeros(obs.size, dtype=np.intp)


class TestFibUpper:
    """The fast informed bound (FIB) that seeds the upper bound, against the
    exact POMDP value and the dense FIB operator."""

    def test_between_the_exact_value_and_the_mdp_corners(self, fib_case):
        m, b0, exact_corners, exact_root, delta = fib_case
        fib = fib_seed(m)
        mdp = solver._mdp_corners(m, solver._blind_alphas(m))[0]
        corners = fib.max(axis=1)
        assert (corners <= mdp + value_tol(mdp)).all()
        assert (corners >= exact_corners - delta).all()
        assert (b0 @ fib).max() >= exact_root - delta

    def test_certificate_alone_keeps_the_seed_valid(self, fib_case,
                                                    monkeypatch):
        m, b0, exact_corners, exact_root, delta = fib_case
        monkeypatch.setattr(solver, "bicgstab",
                            functools.partial(solver.bicgstab, maxiter=1))
        # the start, the policy alphas, is loose too: one Krylov step
        fib = fib_seed(m)
        assert (fib.max(axis=1) >= exact_corners - delta).all()
        assert (b0 @ fib).max() >= exact_root - delta

    @pytest.mark.parametrize("name", DENSE_MODELS)
    def test_policy_iteration_reaches_the_dense_fixed_point(self, name):
        m = dense_sized_model(name)
        want, margin = dense_fib_q(m)
        got = fib_seed(m)
        tol = value_tol(want)
        # above the fixed point, and at it up to the certificate's shift
        assert (got >= want - margin - tol).all()
        assert (got <= want + 1e3 * tol).all()

    @pytest.mark.parametrize("name", DENSE_MODELS)
    def test_sweep_matches_the_dense_operator(self, name):
        # the per-entry sweep reads explicit matrices
        m = explicit_model(dense_sized_model(name))
        rng = np.random.default_rng(0)
        shape = (m.n_states, m.n_actions)
        # integer tables make zero and cancelling sums over s', which the
        # sparse products would drop without the constant shift
        tables = [np.zeros(shape), m.reward / (1.0 - m.discount)] + [
            rng.integers(-1, 2, size=shape).astype(float) for _ in range(3)]
        for q in tables:
            got = solver._fib_sweep(m, q, keep_zero)[0]
            np.testing.assert_allclose(got, dense_fib_sweep(m, q), rtol=0,
                                       atol=1e-12 * max(1.0, np.abs(q).max(),
                                                        np.abs(m.cost).max()))

    @pytest.mark.parametrize("name", DENSE_MODELS)
    def test_fixed_choice_step_matches_a_dense_loop(self, name):
        m = explicit_model(dense_sized_model(name))
        n, n_a = m.n_states, m.n_actions
        _hq, patterns, _choice, _moved = solver._fib_sweep(
            m, np.zeros((n, n_a)), keep_zero)
        rng = np.random.default_rng(1)
        choice = [rng.integers(n_a, size=indices.size)
                  for _indptr, indices in patterns]
        step = solver._fixed_choice_step(m, patterns, choice)
        x = rng.standard_normal((n_a, n))
        want = np.zeros((n_a, n))
        for a, ((indptr, indices), pick) in enumerate(zip(patterns, choice)):
            t, z = m.transitions[a].toarray(), m.observations[a].toarray()
            for s in range(n):
                for i in range(indptr[s], indptr[s + 1]):
                    want[a, s] += t[s] @ (z[:, indices[i]] * x[pick[i]])
        np.testing.assert_allclose(step(x.ravel()), want.ravel(), rtol=0,
                                   atol=1e-13 * np.abs(x).max())
        # every (s, o) that T_a Z_a reaches is in the pattern
        np.testing.assert_allclose(step(np.ones(n_a * n)), 1.0, rtol=0,
                                   atol=1e-13)

    def test_seeded_only_above_eps(self, desk_jopt_model, monkeypatch):
        m, b0 = desk_jopt_model
        calls = []
        fib_q = solver._fib_q

        def counting(*args):
            calls.append(args)
            return fib_q(*args)

        monkeypatch.setattr(solver, "_fib_q", counting)
        mdp = initial_bounds(m).upper.corner
        # the policy alphas leave a root gap above 0.5, at most 5
        lower_seeded = initial_bounds(m, b0, 5.0)
        assert not calls and not lower_seeded.upper.points
        assert np.array_equal(lower_seeded.upper.corner, mdp)
        assert 0.5 < lower_seeded.gap(b0) <= 5.0
        seeded = initial_bounds(m, b0, 0.5)
        assert len(calls) == 1
        assert (seeded.upper.corner <= mdp + value_tol(mdp)).all()
        assert (seeded.upper.corner < mdp - 1.0).any()
        # the bound is exact at this root, so the solve certifies there
        assert seeded.gap(b0) <= 1e-9 * abs(seeded.lower.value(b0))
        res = solve_hsvi(m, b0, eps=0.5)
        assert res.converged and res.iterations == 0 and len(calls) == 2


class TestSolverPieces:
    def test_initial_bounds_sandwich(self):
        m = tiger_model()
        bounds = initial_bounds(m)
        rng = np.random.default_rng(1)
        for _ in range(50):
            b = rng.dirichlet([1, 1])
            assert bounds.lower.value(b) <= bounds.upper.value(b) + 1e-10

    def test_mdp_upper_corners_analytic(self):
        # fully observed chain: state 2 absorbing/free, best at 0 is action 0
        m = chain_model(discount=0.9)
        bounds = initial_bounds(m)
        # V(2)=0, V(1)=-1, V(0)=-1-0.9*1=-1.9
        np.testing.assert_allclose(bounds.upper.corner, [-1.9, -1.0, 0.0],
                                   atol=1e-7)

    def test_backup_improves_and_stays_sandwiched(self):
        m = tiger_model()
        bounds = initial_bounds(m)
        b = np.array([0.5, 0.5])
        before = bounds.lower.value(b)
        alpha = backup(b, bounds, m, solver._expand(b, m))
        after = float(alpha.values @ b)
        assert after >= before - 1e-12
        assert after <= bounds.upper.value(b) + 1e-8

    def test_bellman_value_against_brute_force(self):
        m = tiger_model()
        # a short solve leaves a sawtooth upper bound and several alphas
        bounds = solve_hsvi(m, np.array([0.5, 0.5]), eps=1e-3,
                            max_iterations=3).bounds
        assert len(bounds.lower) > 1 and bounds.upper.points
        b = np.array([0.3, 0.7])
        expansion = solver._expand(b, m)
        for bound in (bounds.lower, bounds.upper):
            q, _ = q_values(expansion, bound, m.discount)
            brute = []
            for a in range(3):
                acc = float(m.reward[:, a] @ b)
                for o in range(2):
                    p = observation_prob(o, a, b, m)
                    if p > 0:
                        acc += m.discount * p * bound.value(
                            update_belief(b, a, o, m))
                brute.append(acc)
            np.testing.assert_allclose(q, brute, rtol=0, atol=1e-12)
            assert int(np.argmax(q)) == int(np.argmax(brute))

    def test_backup_alphas_stay_below_the_exact_value(self):
        # a backup at a belief on {0, 1} must still price state 2, which
        # only emits the observation that belief cannot produce
        m = hidden_pair_model()
        res = solve_hsvi(m, np.full(3, 1.0 / 3.0), eps=1e-3,
                         max_iterations=50)
        horizon = 80
        exact = exact_value_iteration(m, horizon)
        truncation = m.discount ** horizon * np.abs(m.cost).max() \
            / (1.0 - m.discount)
        over = exact.grid @ res.bounds.lower.matrix().T \
            - exact.grid_values[:, None]
        assert len(res.bounds.lower) > m.n_actions
        assert over.max() <= truncation + 1e-9

    def test_excess_uncertainty_formula(self):
        m = tiger_model()
        bounds = initial_bounds(m)
        b = np.array([0.5, 0.5])
        gap = bounds.gap(b)
        assert excess_uncertainty(gap, 0, 0.1, m.discount) \
            == pytest.approx(gap - 0.1)
        assert excess_uncertainty(gap, 3, 0.1, m.discount) \
            == pytest.approx(gap - 0.1 / m.discount ** 3)
        with pytest.raises(ValueError):
            excess_uncertainty(gap, -1, 0.1, m.discount)


def assert_expansion_matches_chain(model, b, bounds):
    """At belief b, per action: the propagation, the successor posteriors
    and the backup equal the sparse-matrix chain of ``oracles`` bit for
    bit. A Kronecker model's mode products sum in another order than the
    materialized matrix's matvec: there the propagation has the same
    support and agrees to round-off, and the chain starts from it."""
    expansion = solver._expand(b, model)
    explicit = explicit_model(model)
    for a, (_r, active, p_act, posts) in enumerate(expansion):
        tau = model.propagate(b, a)
        want = reference_propagate(explicit, b, a)
        if model.factored:
            np.testing.assert_array_equal(tau != 0.0, want != 0.0)
            np.testing.assert_allclose(tau, want, rtol=0, atol=1e-14)
        else:
            assert np.array_equal(tau, want)
        ref_active, ref_p, ref_posts = reference_successor_posts(model, a, tau)
        # the chain stores Z(s', o) * 0 for the next states outside tau's
        # support; the gather never reads those rows
        ref_posts.eliminate_zeros()
        assert np.array_equal(active, ref_active)
        assert np.array_equal(p_act, ref_p)
        assert posts.shape == ref_posts.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(posts, part),
                                  getattr(ref_posts, part)), part
    alpha = backup(b, bounds, model, expansion)
    ref = reference_backup(b, bounds, model, expansion)
    assert alpha.action == ref.action
    assert np.array_equal(alpha.values, ref.values)
    return expansion


def short_solve_bounds(model, b0, eps):
    """Bounds of a 3-iteration solve, so the backups pick among several
    alphas."""
    return solve_hsvi(model, b0, eps=eps, max_iterations=3).bounds


class TestSupportGatherExpansion:
    """The support gathers of ``propagate``, ``_successor_posts`` and the
    backup's row sums against the sparse-matrix chain they replace."""

    def test_tiger(self):
        m = tiger_model()
        bounds = short_solve_bounds(m, np.array([0.5, 0.5]), 1e-3)
        # full support, a corner (the chain stores zeros there) and a tilt
        for b in ([0.5, 0.5], [1.0, 0.0], [0.3, 0.7]):
            assert_expansion_matches_chain(m, np.array(b), bounds)

    @pytest.mark.parametrize(
        "member", range(len(ZOO_DIMS)),
        ids=lambda i: "sparse-z" if i == SPARSE_Z_MEMBER else str(i))
    def test_zoo_member(self, member):
        m = _zoo_pomdp(member)
        b0 = np.full(m.n_states, 1.0 / m.n_states)
        bounds = short_solve_bounds(m, b0, 1e-3)
        rng = np.random.default_rng(member)
        for b in (b0, np.eye(m.n_states)[0],
                  rng.dirichlet(np.ones(m.n_states))):
            assert_expansion_matches_chain(m, b, bounds)

    def test_hidden_pair_with_an_impossible_observation(self):
        m = hidden_pair_model()
        b0 = np.full(3, 1.0 / 3.0)
        bounds = short_solve_bounds(m, b0, 1e-3)
        expansion = assert_expansion_matches_chain(
            m, np.array([0.5, 0.5, 0.0]), bounds)
        # observation 1 has probability 0 from this belief
        assert all(list(active) == [0] for _r, active, _p, _posts
                   in expansion)
        assert_expansion_matches_chain(m, b0, bounds)
        # a negative entry within the belief tolerance gives observation 1
        # a negative weight; it stays out of the active set
        expansion = assert_expansion_matches_chain(
            m, np.array([0.5 + 1e-11, 0.5, -1e-11]), bounds)
        assert all(list(active) == [0] for _r, active, _p, _posts
                   in expansion)

    def test_desk_jopt_random_walk(self, desk_jopt_model):
        m, b0 = desk_jopt_model
        bounds = short_solve_bounds(m, b0, 5.0)
        rng = np.random.default_rng(11)
        full = rng.dirichlet(np.ones(m.n_states))
        assert np.count_nonzero(full) == m.n_states
        assert_expansion_matches_chain(m, full, bounds)
        b = b0
        for _ in range(12):
            expansion = assert_expansion_matches_chain(m, b, bounds)
            _r, active, p_act, posts = expansion[rng.integers(m.n_actions)]
            assert active.size < m.n_obs
            b = posts[rng.choice(active.size, p=p_act / p_act.sum())] \
                .toarray().ravel()


class TestExactOracle:
    def test_scale_guards(self):
        T = [np.eye(13)]
        m = PomdpModel(transitions=T, observations=T,
                       cost=np.zeros((13, 1)), discount=0.9)
        with pytest.raises(OracleScaleError):
            exact_value_iteration(m, 5)
        with pytest.raises(OracleScaleError):
            exact_value_iteration(tiger_model(), 101)

    def test_fully_observed_analytic(self):
        m = chain_model(discount=0.9)
        sol = exact_value_iteration(m, 60)
        # truncation 0; deterministic chain reaches the free state in two steps
        assert sol.value([1.0, 0.0, 0.0]) == pytest.approx(-1.9, abs=1e-9)
        assert sol.value([0.0, 1.0, 0.0]) == pytest.approx(-1.0, abs=1e-9)
        assert sol.value([0.0, 0.0, 1.0]) == pytest.approx(0.0, abs=1e-9)

    def test_horizon_one_is_myopic(self):
        m = tiger_model()
        sol = exact_value_iteration(m, 1)
        b = np.array([0.5, 0.5])
        assert sol.value(b) == pytest.approx(float((m.reward.T @ b).max()))

    def test_sup_diff_contracts(self):
        m = tiger_model(discount=0.6)
        sol = exact_value_iteration(m, 14, prune_margin=1e-5)
        d = sol.per_step_sup_diff
        # geometric tail: eventually bounded by the discount contraction
        assert d[-1] < d[4]
        assert d[-1] < m.discount ** 7 * (np.abs(m.reward).max() / (1 - m.discount))


class TestHsvi:
    def test_matches_exact_oracle(self):
        m = tiger_model(discount=0.6)
        b0 = np.array([0.5, 0.5])
        # horizon 30, prune margin 1e-5
        sol = exact_solution("tiger")[0]
        res = solve_hsvi(m, b0, eps=2e-4, max_iterations=300)
        assert res.converged
        assert abs(res.root_value - sol.value(b0)) < 1e-3
        assert res.bounds.worst_violation <= 0.0 + 1e-8

    def test_bounds_monotone_log(self):
        m = tiger_model(discount=0.6)
        res = solve_hsvi(m, np.array([0.5, 0.5]), eps=1e-3)
        gaps = [hi - lo for (_, lo, hi, _, _, _) in res.log]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-3 < gaps[-2]
        # one record per exploration run, numbered from 1
        assert res.iterations == len(res.log)
        assert [rec[0] for rec in res.log] == list(range(1, len(gaps) + 1))

    def test_iteration_budget_counts_explorations(self):
        m = tiger_model(discount=0.6)
        res = solve_hsvi(m, np.array([0.5, 0.5]), eps=1e-9, max_iterations=3)
        assert not res.converged
        assert res.iterations == len(res.log) == 3

    def test_deterministic_reruns(self):
        m = tiger_model(discount=0.6)
        r1 = solve_hsvi(m, np.array([0.5, 0.5]), eps=1e-3)
        r2 = solve_hsvi(m, np.array([0.5, 0.5]), eps=1e-3)
        assert list(r1.log_lines()) == list(r2.log_lines())
        assert r1.root_value == r2.root_value

    def test_log_lines_exclude_wall_clock(self):
        m = tiger_model(discount=0.6)
        res = solve_hsvi(m, np.array([0.5, 0.5]), eps=1e-2)
        line = next(iter(res.log_lines()))
        assert len(line.split()) == 5
        line_w = next(iter(res.log_lines(include_wall=True)))
        assert len(line_w.split()) == 6

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            solve_hsvi(tiger_model(), np.array([0.5, 0.5]), eps=0.0)

    def test_fully_observed_converges_to_mdp(self):
        m = chain_model(discount=0.9)
        res = solve_hsvi(m, np.array([1.0, 0.0, 0.0]), eps=1e-6)
        assert res.converged
        assert res.root_value == pytest.approx(-1.9, abs=1e-5)

    def test_weight_28_lower_bound_survives_the_prune(self,
                                                       desk_compiled_small):
        # the j-opt weight model at power weight 28 reaches root values
        # near 2194; 12 explorations run one prune, at iteration 10
        from swiptctl.control import (build_cost_table, greedy_policy,
                                      layer_model, uniform_initial_belief)
        from swiptctl.harness import SWEEP_HSVI_KW, default_constraints
        compiled = desk_compiled_small
        cost = build_cost_table(compiled, default_constraints(compiled.config),
                                28.0)
        model = layer_model(compiled, constant_layer(compiled), cost)
        b0 = uniform_initial_belief(compiled)
        start = initial_bounds(model, b0, 1e-6).lower.value(b0)
        res = solve_hsvi(model, b0, eps=1e-6,
                         **{**SWEEP_HSVI_KW, "max_iterations": 12})
        lows = [start] + [rec[1] for rec in res.log]
        assert res.iterations == 12 and lows[0] > 2000.0
        assert all(b >= a for a, b in zip(lows, lows[1:])), lows
        exact = ObservationMdp(compiled, model)
        policy = greedy_policy(compiled, res.bounds.lower)
        assert exact.executed_root(b0, policy.action_of) >= start

    def test_the_root_stays_a_witness_past_the_witness_slots(self,
                                                             monkeypatch):
        # each exploration backs up more beliefs than the witness slots
        # hold, so b0 has left them by the prune at iteration 10; the alpha
        # that is best at b0 alone must survive it all the same
        m, b0 = tiger_model(), np.array([0.5, 0.5])
        sides = [np.array([0.99, 0.01]), np.array([0.01, 0.99])]
        added = []

        def explore(b, t, bounds, model, eps, depth_cap, stats):
            if not added:
                alpha = np.full(2, bounds.lower.value(b0) + 1.0)
                assert bounds.upper.value(b0) > alpha @ b0 + 1.0
                assert all(bounds.lower.value(w) > alpha @ w for w in sides)
                assert (bounds.lower.matrix().max(axis=0) > alpha).all()
                added.append(AlphaVector(values=alpha, action=0))
                bounds.lower.add(added[0])
            for i in range(solver.WITNESS_SLOTS):
                stats.visited.append(sides[i % 2])
            return bounds

        monkeypatch.setattr(solver, "explore", explore)
        res = solve_hsvi(m, b0, eps=1e-9, max_iterations=solver.PRUNE_EVERY)
        assert res.iterations == solver.PRUNE_EVERY
        assert any(a is added[0] for a in res.bounds.lower.alphas)
        lows = [rec[1] for rec in res.log]
        assert lows == [added[0].values @ b0] * len(lows)

    def test_each_backup_propagates_once_per_action(self, monkeypatch):
        m = tiger_model(discount=0.6)
        calls = {"propagate": 0, "backup": 0}
        propagate, backup_ = PomdpModel.propagate, solver.backup

        def counting_propagate(self, b, a):
            calls["propagate"] += 1
            return propagate(self, b, a)

        def counting_backup(*args):
            calls["backup"] += 1
            return backup_(*args)

        monkeypatch.setattr(PomdpModel, "propagate", counting_propagate)
        monkeypatch.setattr(solver, "backup", counting_backup)
        solve_hsvi(m, np.array([0.5, 0.5]), eps=1e-3)
        assert calls["backup"] > 0
        assert calls["propagate"] == m.n_actions * calls["backup"]
