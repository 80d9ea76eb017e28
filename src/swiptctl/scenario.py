"""Scenario configuration and compilation into a solvable control model.

A scenario couples the physical link parameters (array sizes, bandwidth,
powers, splitting ratio) with the slotted bookkeeping (queues, energy units,
arrivals). Compilation runs a seeded Monte Carlo calibration of the link
layer to produce per-level service/harvest tables; the per-user factors of
the transition kernel and the observation matrix are built from them on first
use.

Full-array dimensions are used for the link statistics; the solver-facing
state space is kept at desk scale (small queue/energy/level counts).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property

import numpy as np

from .channel import (AntennaSelection, Dims, achievable_rate, channel_stream,
                      crandn, draw_channel_stack, harvested_energy, link_gains,
                      mrt_precoders, normalized, sq_norms, zf_noise_gains)
# no caller here: perfbench/spans.py traces these three names in this module
from .channel import downlink_sinr, draw_channel, uplink_sinr  # noqa: F401
from .dynamics import (ActionTable, LevelModel, StateSpace, TransitionKernel,
                       arrival_pmf, build_kernel, build_observation_matrix,
                       check_state_budget, level_map_matrix)
from .pomdp.model import check_stochastic, emitted, take_actions


class ConfigError(ValueError):
    """Malformed or physically inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    """All knobs of one experiment, JSON round-trippable and hashable.

    Defaults follow the reference deployment: a 16x16 full-duplex
    aggregator serving 3 sensors, 10 MHz, 5 ms slots, 20 kbit packets with
    10 packets/s Poisson arrivals, q_max 30, CSI error 0.2, even power
    split, 40% harvester efficiency.
    """

    n_r: int = 16
    n_t: int = 16
    k: int = 3
    n_u: int = 2
    bandwidth_hz: float = 10e6
    slot_s: float = 5e-3
    packet_bits: float = 20e3
    arrival_rate_hz: float = 10.0
    q_max: int = 30
    e_max: int = 10
    delta_e_j: float = 1e-6
    battery_j: float = 3.2 * 20 * 3600.0
    alpha: float = 0.2
    rho: float = 0.5
    eta: float = 0.4
    noise_w: float = 1e-9
    si_power_w: float = 0.0
    power_levels_up: tuple = (0.0, 0.05, 0.1)
    power_levels_down: tuple = (0.0, 0.5, 1.0)
    mask_sizes: tuple = ()            # empty -> full array only
    circuit_w_per_antenna: float = 0.05
    n_levels: int = 2
    discount: float = 0.95
    duplex: str = "fd"
    calib_draws: int = 600
    seed: int = 0

    def __post_init__(self):
        # counts shape arrays and seed streams: a float or a bool fails there
        counts = [(name, getattr(self, name)) for name in (
            "n_r", "n_t", "k", "n_u", "q_max", "e_max", "n_levels",
            "calib_draws", "seed")]
        counts += [("mask size", sz) for sz in self.mask_sizes]
        for name, v in counts:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        # a NaN passes every range check below, and an infinity most
        reals = [(name, getattr(self, name)) for name in (
            "bandwidth_hz", "slot_s", "packet_bits", "arrival_rate_hz",
            "delta_e_j", "battery_j", "alpha", "rho", "eta", "noise_w",
            "si_power_w", "circuit_w_per_antenna", "discount")]
        reals += [("power level", p) for p in (*self.power_levels_up,
                                               *self.power_levels_down)]
        for name, v in reals:
            # a bool is an int to Python, and hashes unlike the float it means
            if isinstance(v, bool):
                raise ConfigError(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        if self.duplex not in ("fd", "hd"):
            raise ConfigError(f"unknown duplex mode {self.duplex!r}")
        positive = {
            "bandwidth_hz": self.bandwidth_hz, "slot_s": self.slot_s,
            "packet_bits": self.packet_bits,
            "arrival_rate_hz": self.arrival_rate_hz,
            "delta_e_j": self.delta_e_j, "battery_j": self.battery_j,
            "noise_w": self.noise_w, "calib_draws": self.calib_draws,
            "n_levels": self.n_levels,
        }
        for name, v in positive.items():
            if v <= 0:
                raise ConfigError(f"{name} must be positive, got {v}")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta must lie in (0, 1], got {self.eta}")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError("rho must lie strictly inside (0, 1)")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError("alpha must lie in [0, 1)")
        if not 0.0 < self.discount < 1.0:
            raise ConfigError("discount must lie in (0, 1)")
        if min(self.q_max, self.e_max) < 1:
            raise ConfigError("q_max and e_max must be at least 1")
        # calibrate and with_budget pair the two grids level by level
        up, down = self.power_levels_up, self.power_levels_down
        if not up or len(up) != len(down) or min(*up, *down) < 0:
            raise ConfigError("power_levels_up and power_levels_down must be "
                              "nonempty, nonnegative and of equal length")
        for sz in self.mask_sizes:
            if not self.k * self.n_u <= sz <= self.n_r:
                raise ConfigError(f"mask size {sz} infeasible for ZF")
        # validates array-dimension ordering
        self.dims()

    def dims(self) -> Dims:
        return Dims(n_r=self.n_r, n_t=self.n_t, n_u=self.n_u, k=self.k)

    def state_space(self) -> StateSpace:
        return StateSpace(n_users=self.k, q_max=self.q_max, e_max=self.e_max,
                          n_levels=self.n_levels)

    @property
    def lam_slot(self) -> float:
        """Mean packet arrivals per slot."""
        return self.arrival_rate_hz * self.slot_s

    def resolved_mask_sizes(self) -> tuple:
        return self.mask_sizes if self.mask_sizes else (self.n_r,)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {exc.lineno}: {exc.msg}") from exc
        if not isinstance(d, dict):
            raise ConfigError("top-level config must be an object")
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            for key in ("power_levels_up", "power_levels_down",
                        "mask_sizes"):
                if key in d:
                    d[key] = tuple(d[key])
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def scenario_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def desk_scenario(**overrides) -> ScenarioConfig:
    """Solver-scale preset: 2 users, single stream, short buffers.

    The full-array link statistics still use a 16-antenna aggregator; the
    controlled state space stays enumerable.
    """
    base = dict(k=2, n_u=1, q_max=6, e_max=4, n_levels=2,
                arrival_rate_hz=100.0, noise_w=0.2, delta_e_j=5e-5,
                calib_draws=400,
                power_levels_up=(0.0, 0.005, 0.01, 0.02),
                power_levels_down=(0.0, 0.125, 0.25, 0.5))
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# link-layer calibration
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")   # refused below by name
def calibrate(cfg: ScenarioConfig) -> tuple:
    """Seeded Monte Carlo pass over channel draws, in array passes; returns
    the ``(LevelModel, ActionTable)`` pair.

    Levels are equal-mass quantile bins of the true per-user channel gain;
    the confusion matrix counts how often the estimated gain falls in a
    different bin. Service, harvest and rate tables are per-level sample
    means of the SINR maps, discretized to packets and energy units.
    Actions run mask-major: action ``m * n_powers + p`` plays mask m at
    power level p.

    All draws are stacked. Per antenna mask, the power-independent link
    geometry (ZF noise gains, MRT precoders, received and cross gains) is
    computed once; each power level is then scalar algebra over the draws.
    The result equals the per-draw ``uplink_sinr``/``downlink_sinr`` loop
    bit for bit: the same operations in the same order on the same values.
    """
    rng = channel_stream(cfg.seed, link=2)
    dims = cfg.dims()
    a2 = cfg.alpha ** 2
    duplex_frac = 0.5 if cfg.duplex == "hd" else 1.0
    slot_link = cfg.slot_s * duplex_frac
    si = 0.0 if cfg.duplex == "hd" else cfg.si_power_w

    h_true, h_est, delta = draw_channel_stack(dims, cfg.alpha, rng,
                                              cfg.calib_draws)
    gains_true = sq_norms(h_true)
    gains_est = sq_norms(h_est)
    edges = np.quantile(gains_true.ravel(),
                        np.linspace(0, 1, cfg.n_levels + 1))
    edges[0], edges[-1] = 0.0, np.inf

    def bins(g):
        return np.clip(np.searchsorted(edges, g, side="right") - 1,
                       0, cfg.n_levels - 1)

    level_true = bins(gains_true)              # (calib_draws, k)
    counts = np.zeros((cfg.n_levels, cfg.n_levels))
    np.add.at(counts, (level_true.ravel(), bins(gains_est).ravel()), 1.0)
    empty = np.flatnonzero(counts.sum(axis=1) == 0)
    if empty.size:      # its level probability is 0 and its confusion row 0/0
        raise ConfigError(f"channel level {empty[0]} holds none of the "
                          f"{level_true.size} calibration gains; lower "
                          "n_levels or raise calib_draws")
    conf = counts / counts.sum(axis=1, keepdims=True)
    probs = counts.sum(axis=1) / counts.sum()
    level = LevelModel(probs=probs, obs_confusion=conf)

    # the per-level sample counts, and the uplink precoders of each draw,
    # are the same for every action
    hits = np.array([np.bincount(level_true[:, u], minlength=cfg.n_levels)
                     for u in range(cfg.k)])
    user, lv = np.unravel_index(np.argmin(hits), hits.shape)
    if hits[user, lv] == 0:     # its service and harvest means would be 0/0
        raise ConfigError(f"channel level {lv} holds none of user {user}'s "
                          f"{cfg.calib_draws} calibration gains; lower "
                          "n_levels or raise calib_draws")
    w_up = normalized(crandn(channel_stream(cfg.seed, link=3),
                             cfg.calib_draws, cfg.k, dims.n_u, dims.n_u))
    w_up_sq = sq_norms(w_up)

    def level_means(x):
        """Per-user per-level means of x (calib_draws, k); bincount adds
        the weights in draw order, as the per-draw loop did."""
        return np.array([np.bincount(level_true[:, u], weights=x[:, u],
                                     minlength=cfg.n_levels)
                         for u in range(cfg.k)]) / hits

    mask_sizes = cfg.resolved_mask_sizes()
    power_pairs = list(zip(cfg.power_levels_up, cfg.power_levels_down))
    n_actions = len(mask_sizes) * len(power_pairs)
    table = ActionTable(
        served=np.zeros((n_actions, cfg.k, cfg.n_levels), dtype=int),
        harvested=np.zeros((n_actions, cfg.k, cfg.n_levels), dtype=int),
        used_units=np.zeros((n_actions, cfg.k), dtype=int),
        p_up=np.zeros((n_actions, cfg.k)),
        p_down=np.zeros((n_actions, cfg.k)),
        rate_down=np.zeros((n_actions, cfg.k)),
        mask_id=np.repeat(np.arange(len(mask_sizes)), len(power_pairs)),
        n_active=np.repeat(mask_sizes, len(power_pairs)))
    for m_id, n_active in enumerate(mask_sizes):
        sel = AntennaSelection.first(cfg.n_r, n_active)
        f_hat = sel.select(h_est)
        zf_gain = zf_noise_gains(f_hat, w_up)  # (calib_draws, k, n_u)
        w_down = mrt_precoders(f_hat)
        # |f_u^H w_i|^2 for every user pair, the estimation-error terms
        # |delta_i^H w_i|^2 and the harvester's received gain |h_u^H w_u|^2;
        # Python's sum adds the terms in user order, as the per-draw loop
        cross = link_gains(f_hat[:, :, None], w_down[:, None])
        err = sum(link_gains(sel.select(delta), w_down).T)
        rx_gain = link_gains(sel.select(h_true), w_down)
        dn_signal = np.diagonal(cross, axis1=1, axis2=2)
        dn_interf = np.stack(
            [sum(cross[:, u, i] for i in range(cfg.k) if i != u)
             + a2 / (1.0 - a2) * err for u in range(cfg.k)], axis=1)
        for p_id, (p_up, p_down) in enumerate(power_pairs):
            a = m_id * len(power_pairs) + p_id
            sinr_up = np.zeros((cfg.k, cfg.n_levels))
            sinr_dn = np.zeros((cfg.k, cfg.n_levels))
            eh_power = np.zeros((cfg.k, cfg.n_levels))
            if p_up > 0:
                up_err = a2 * (sum(p_up * w_up_sq.T) + si * p_up)
                num = (1.0 - a2) * p_up * w_up_sq / dims.n_u
                sinr = num[..., None] / ((up_err + cfg.noise_w)[:, None, None]
                                         * zf_gain)
                sinr_up = level_means(np.maximum(sinr, 0.0).mean(axis=-1))
            if p_down > 0:
                den = dn_interf + cfg.noise_w / ((1.0 - a2) * p_down)
                den = den + cfg.noise_w / (cfg.rho * (1.0 - a2) * p_down)
                sinr_dn = level_means(dn_signal / den)
                eh_power = level_means((1.0 - cfg.rho) * (p_down * rx_gain))
            price = p_up * slot_link / cfg.delta_e_j
            served, rate_dn = (np.vectorize(achievable_rate, otypes=[float])(
                sinr, cfg.bandwidth_hz, slot_link, cfg.packet_bits)
                for sinr in (sinr_up, sinr_dn))
            # integers below: x < limit fails on inf, NaN and past int64
            for link, power, what, x, limit in (
                    ("uplink", p_up, "energy price", price, 2 ** 63),
                    ("uplink", p_up, "SINR", sinr_up, math.inf),
                    ("uplink", p_up, "served packet count", served, 2 ** 63),
                    ("downlink", p_down, "SINR", sinr_dn, math.inf),
                    ("downlink", p_down, "rate", rate_dn, 2 ** 63),
                    ("downlink", p_down, "harvest power", eh_power, math.inf)):
                if not np.all(x < limit):
                    raise ConfigError(f"{link} power level {power!r} W "
                                      f"overflows the {what}")
            table.used_units[a] = math.ceil(price)
            table.served[a] = served
            table.harvested[a] = np.vectorize(harvested_energy, otypes=[int])(
                eh_power, cfg.eta, slot_link, cfg.delta_e_j, cap=cfg.e_max)
            table.p_up[a] = p_up * duplex_frac
            table.p_down[a] = p_down * duplex_frac
            table.rate_down[a] = rate_dn @ level.probs
    return level, table


# ---------------------------------------------------------------------------
# compiled scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompiledScenario:
    """A configuration and what its calibration measured; everything the
    solver and the rollout harness consume derives from these three.

    The kernel and the observation matrix are built on first read, so a
    path that never reads them (a rollout, p-opt) builds neither, and a
    copy with another action table (``dataclasses.replace``) builds its
    own kernel from that table."""

    config: ScenarioConfig
    level: LevelModel
    actions: ActionTable

    @cached_property
    def space(self) -> StateSpace:
        return self.config.state_space()

    @cached_property
    def arrival_pmf(self) -> np.ndarray:
        """Per-slot arrival pmf, read by the kernel and the rollout."""
        return arrival_pmf(self.config.lam_slot)

    @cached_property
    def scenario_hash(self) -> str:
        return self.config.scenario_hash()

    @cached_property
    def kernel(self) -> TransitionKernel:
        return build_kernel(self.space, self.arrival_pmf, self.level,
                            self.actions)

    @cached_property
    def obs_matrix(self):
        """Pr(O | S'), a ``Csr`` record, action-independent."""
        return check_stochastic(build_observation_matrix(self.space,
                                                         self.level))

    @cached_property
    def obs_posteriors(self):
        """A ``Csr`` record; row o is the belief after observation o under
        the stationary level prior: queue and energy are read exactly, each
        user's level via Bayes through the confusion matrix (``I_(q,e) ⊗
        posterior``)."""
        post = [w / s if (s := w.sum()) > 0 else w      # 0: never observed
                for w in self.level.probs * self.level.obs_confusion.T]
        post = level_map_matrix(self.space, np.array(post))
        return check_stochastic(post, emitted([self.obs_matrix]))

    @property
    def n_actions(self) -> int:
        return len(self.actions)


def compile_scenario(cfg: ScenarioConfig) -> CompiledScenario:
    """Calibrate; a state space above ``dynamics.MAX_STATES`` fails before
    the calibration runs (the cost table and p-opt allocate joint-size
    arrays too, not only the kernel)."""
    check_state_budget(cfg.state_space())
    return CompiledScenario(cfg, *calibrate(cfg))


def _sub_list(wide: list, kept: list) -> list:
    """Positions in ``wide`` of the order-preserving sub-list ``kept``, each
    matched to the first free equal entry; ``ValueError`` if it is none."""
    at, pos = [], 0
    for item in kept:
        while pos < len(wide) and wide[pos] != item:
            pos += 1
        if pos == len(wide):
            raise ValueError(f"{kept} is not an ordered sub-list of {wide}")
        at.append(pos)
        pos += 1
    return at


def restrict(compiled: CompiledScenario,
             cfg: ScenarioConfig) -> CompiledScenario:
    """The compiled scenario of ``cfg``, read from ``compiled`` without a
    calibration: ``cfg`` may differ from ``compiled.config`` only by keeping
    an order-preserving sub-list of its power pairs and of its masks.

    Calibration measures each (mask, power pair) on its own and the levels
    from the channel draws alone, so the view equals ``compile_scenario(cfg)``
    field for field: it shares ``level`` and keeps the action table's kept
    rows, mask-major, with the masks renumbered from 0. The observation
    matrix and its posteriors that ``compiled`` has already built are
    shared, and its kernel's kept factors are taken (a view when the kept
    actions run on), not built again; what it has not built, the view
    builds on first read."""
    wide = compiled.config
    if cfg == wide:
        return compiled
    pairs = list(zip(wide.power_levels_up, wide.power_levels_down))
    masks = list(wide.resolved_mask_sizes())
    if replace(cfg, power_levels_up=wide.power_levels_up,
               power_levels_down=wide.power_levels_down,
               mask_sizes=wide.mask_sizes) != wide:
        raise ValueError("restrict keeps power pairs and masks; every other "
                         "config field must be equal")
    kept_pairs = _sub_list(pairs, list(zip(cfg.power_levels_up,
                                           cfg.power_levels_down)))
    kept_masks = _sub_list(masks, list(cfg.resolved_mask_sizes()))
    keep = [m * len(pairs) + p for m in kept_masks for p in kept_pairs]
    rows = {f.name: getattr(compiled.actions, f.name)[keep]
            for f in fields(ActionTable)}
    rows["mask_id"] = np.repeat(np.arange(len(kept_masks)), len(kept_pairs))
    view = CompiledScenario(cfg, compiled.level, ActionTable(**rows))
    built = vars(compiled)      # the cached properties read so far
    for name in ("obs_matrix", "obs_posteriors"):
        if name in built:
            vars(view)[name] = built[name]
    if "kernel" in built:
        kernel = built["kernel"]
        vars(view)["kernel"] = TransitionKernel(
            take_actions(kernel.factors, keep), kernel.levels)
    return view


def with_budget(cfg: ScenarioConfig, budget_w: float) -> ScenarioConfig:
    """Restrict the power grids to levels whose summed per-user transmit
    power fits the budget; the zero level always survives."""
    pairs = [(pu, pd) for pu, pd in zip(cfg.power_levels_up,
                                        cfg.power_levels_down)
             if cfg.k * (pu + pd) <= budget_w + 1e-12 or (pu == 0 and pd == 0)]
    if len(pairs) < 2:
        raise ConfigError(f"budget {budget_w} W admits no transmit level")
    return replace(cfg, power_levels_up=tuple(p for p, _ in pairs),
                   power_levels_down=tuple(p for _, p in pairs))
