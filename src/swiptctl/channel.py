"""Imperfect-CSI MIMO physical layer.

Channel draws tied by an uncertainty factor alpha, antenna selection,
uplink/downlink SINR through zero forcing, harvested energy and per-slot
achievable rate.

The calibration uses the stacked forms: :func:`draw_channel_stack` and the
power-independent link geometry of many draws at once
(:func:`zf_noise_gains`, :func:`mrt_precoders`, :func:`link_gains`). The
per-draw functions (:func:`draw_channel`, :func:`uplink_sinr` and
:func:`downlink_sinr`) have no production caller; they are the reference
that the stacked forms equal bit for bit. The ZF equalizers, the power
split and the closed-form SINR densities live with the tests, in
``tests/oracles.py``.

All randomness enters through explicit ``numpy.random.Generator`` handles;
every function here is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: refuse ZF inversion above this 2-norm condition number
COND_CAP = 1e8


class ConditioningError(ValueError):
    """Stacked channel matrix is singular or too ill-conditioned for ZF."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dims:
    """Antenna geometry: AGG has n_t = n_r antennas, each of the k SUs has n_u."""

    n_t: int
    n_r: int
    n_u: int
    k: int

    def __post_init__(self):
        if self.n_t != self.n_r:
            raise ValueError("equal transmit and receive antenna counts assumed")
        if not (self.n_r >= self.n_u >= 1):
            raise ValueError("need n_r >= n_u >= 1")
        if self.k < 1:
            raise ValueError("need at least one SU")
        if self.n_r < self.k * self.n_u:
            raise ValueError("ZF infeasible: n_r < k * n_u")


@dataclass(frozen=True)
class ChannelPair:
    """True and estimated channel realizations tied by the uncertainty factor.

    ``h_true = sqrt(1 - alpha^2) * h_est + alpha * delta`` holds exactly for
    the stored ``delta`` realization.
    """

    h_true: np.ndarray
    h_est: np.ndarray
    delta: np.ndarray
    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1)")


@dataclass(frozen=True)
class AntennaSelection:
    """Active-antenna mask at the AGG; selection keeps the masked rows."""

    mask: np.ndarray  # bool, length n_r

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        object.__setattr__(self, "mask", m)
        if m.ndim != 1 or not m.any():
            raise ValueError("mask must be a 1-d vector with >= 1 active antenna")

    def select(self, h: np.ndarray) -> np.ndarray:
        """Apply the implied selection matrix V (row subset); a stack of
        channels keeps its leading axes. The result is C-contiguous, so a
        stack's matrices have the strides that a single matrix's have."""
        return np.ascontiguousarray(h[..., self.mask, :])

    @staticmethod
    def first(n_r: int, n_active: int) -> "AntennaSelection":
        mask = np.zeros(n_r, dtype=bool)
        mask[:n_active] = True
        return AntennaSelection(mask)


@dataclass(frozen=True)
class BeamformerSet:
    """Unit-Frobenius-norm precoders with explicit power scalars.

    ``w_up[k]`` has shape (n_u, d_k) and is applied at SU k; ``w_down[k]``
    has shape (n_active, d_k) and is applied at the AGG after selection.
    Powers are per-user arrays in watts.
    """

    w_up: tuple
    w_down: tuple
    p_up: np.ndarray
    p_down: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_up", np.atleast_1d(np.asarray(self.p_up, dtype=float)))
        object.__setattr__(self, "p_down", np.atleast_1d(np.asarray(self.p_down, dtype=float)))
        for w in tuple(self.w_up) + tuple(self.w_down):
            nrm = np.linalg.norm(w)
            if not math.isclose(nrm, 1.0, rel_tol=1e-9, abs_tol=1e-12):
                raise ValueError("precoders must have unit Frobenius norm")
        if (self.p_up < 0).any() or (self.p_down < 0).any():
            raise ValueError("powers must be nonnegative")


@dataclass(frozen=True)
class SinrReport:
    """Linear-scale SINR values plus the noise variances that produced them."""

    uplink: tuple | None = None    # per user: array of per-stream SINR
    downlink: np.ndarray | None = None  # per user scalar SINR
    noise: dict = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.uplink or ()):
            if not np.all(np.isfinite(arr)) or np.any(np.asarray(arr) < 0):
                raise ValueError("SINR values must be finite and nonnegative")
        if self.downlink is not None:
            d = np.asarray(self.downlink)
            if not np.all(np.isfinite(d)) or np.any(d < 0):
                raise ValueError("SINR values must be finite and nonnegative")


# ---------------------------------------------------------------------------
# channel draws
# ---------------------------------------------------------------------------

def crandn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Zero-mean unit-variance circularly-symmetric complex Gaussian draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def channel_stream(seed: int, link: int) -> np.random.Generator:
    """Counter-based (Philox) stream keyed by (seed, link): the calibration
    draws its channels from link 2 and its uplink precoders from link 3,
    each array in one call, so the draws depend on the seed alone."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed),
                                                counter=[0, 0, 0, link]))


def draw_channel(dims: Dims, alpha: float, rng: np.random.Generator) -> ChannelPair:
    """Draw one (h_true, h_est) pair of shape (n_r, n_u) tied by alpha."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    h_est = crandn(rng, dims.n_r, dims.n_u)
    delta = crandn(rng, dims.n_r, dims.n_u)
    h_true = np.sqrt(1.0 - alpha ** 2) * h_est + alpha * delta
    return ChannelPair(h_true=h_true, h_est=h_est, delta=delta, alpha=alpha)


def draw_channel_stack(dims: Dims, alpha: float, rng: np.random.Generator,
                       n: int) -> tuple:
    """(h_true, h_est, delta) stacks of shape (n, k, n_r, n_u): the pairs of
    ``n * k`` successive :func:`draw_channel` calls, read from the stream in
    one call and in the same order, so they are equal bit for bit."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    # per pair: h_est's real and imaginary parts, then delta's
    z = rng.standard_normal((n, dims.k, 4, dims.n_r, dims.n_u))
    h_est = (z[:, :, 0] + 1j * z[:, :, 1]) / np.sqrt(2.0)
    delta = (z[:, :, 2] + 1j * z[:, :, 3]) / np.sqrt(2.0)
    h_true = np.sqrt(1.0 - alpha ** 2) * h_est + alpha * delta
    return h_true, h_est, delta


# ---------------------------------------------------------------------------
# zero forcing and SINR
# ---------------------------------------------------------------------------

def _check_conditioning(m: np.ndarray) -> None:
    """Raise :class:`ConditioningError` unless every matrix over the last two
    axes of ``m`` has a 2-norm condition number of at most ``COND_CAP``."""
    sv = np.linalg.svd(m, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(sv[..., -1] == 0.0, np.inf, sv[..., 0] / sv[..., -1])
    if np.any(cond > COND_CAP):
        raise ConditioningError(f"condition number {np.max(cond):.3e} "
                                f"exceeds cap {COND_CAP:.1e}")


def _stack_uplink(channels, sel: AntennaSelection, bf: BeamformerSet, k: int,
                  si_column: np.ndarray | None):
    """Stacked estimated channel for user k: desired block first, then the
    other users' effective interference columns and (optionally) the residual
    self-interference column.

    The interference factorization is non-unique; only factorization-invariant
    quantities (the final SINR, the ZF residual) are exposed.
    """
    blocks = [sel.select(channels[k].h_est)]
    for i, ch in enumerate(channels):
        if i != k:
            blocks.append(sel.select(ch.h_est) @ bf.w_up[i])
    if si_column is not None:
        blocks.append(si_column)
    h_check = np.hstack(blocks)
    if h_check.shape[1] > h_check.shape[0]:
        raise ValueError("ZF infeasible: more interference columns than active antennas")
    return h_check


def uplink_sinr(channels, sel: AntennaSelection, bf: BeamformerSet,
                noise: float, si_column: np.ndarray | None = None,
                p_si: float = 0.0) -> SinrReport:
    """Per-user per-stream uplink SINR through the ZF receiver.

    Desired power (1-alpha^2) p_u ||w_k||^2 / d_k over the residual
    estimation-error power alpha^2 * sum_i p_i ||w_i||^2 (plus the residual
    self-interference power ``p_si`` when present) and thermal noise, both
    projected through the stream-wise diagonal of inv(H^H H).

    Per-draw reference with no production caller: the calibration uses
    :func:`zf_noise_gains` and applies the powers itself, and equals a loop
    over this function bit for bit.
    """
    if noise < 0:
        raise ValueError("noise variance must be nonnegative")
    alpha = channels[0].alpha
    err_power = alpha ** 2 * (
        sum(float(bf.p_up[i]) * np.linalg.norm(bf.w_up[i]) ** 2
            for i in range(len(channels))) + p_si)
    per_user = []
    for k in range(len(channels)):
        h_check = _stack_uplink(channels, sel, bf, k, si_column)
        _check_conditioning(h_check)
        n_u = channels[k].h_est.shape[1]
        d_k = bf.w_up[k].shape[1]
        gram_inv = np.linalg.inv(h_check.conj().T @ h_check)
        diag = np.real(np.diag(gram_inv)[:n_u])
        num = (1.0 - alpha ** 2) * float(bf.p_up[k]) \
            * np.linalg.norm(bf.w_up[k]) ** 2 / d_k
        sinr = num / ((err_power + noise) * diag[:d_k]) if num > 0 \
            else np.zeros(d_k)
        per_user.append(np.maximum(sinr, 0.0))
    return SinrReport(uplink=tuple(per_user), noise={"sigma_u": noise})


def downlink_sinr(channels, sel: AntennaSelection, bf: BeamformerSet,
                  rho: float, noise_d: float, noise_s: float,
                  xtalk=None) -> SinrReport:
    """Per-user downlink SINR at the ID branch.

    Includes downlink inter-user interference, the alpha^2/(1-alpha^2)
    estimation-error term, uplink intracell interference scaled by
    p_u / ((1-alpha^2) p_d), and the two noise terms sigma_d^2/((1-a^2) p_d)
    and sigma_s^2/(rho (1-a^2) p_d).

    ``channels`` are the downlink pairs (F); ``xtalk`` is an optional list of
    per-user SU-to-SU cross channels g_k (shape (n_u, n_u) per interferer).

    Per-draw reference with no production caller: the calibration uses
    :func:`mrt_precoders` and :func:`link_gains` and applies the powers
    itself, and equals a loop over this function bit for bit.
    """
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    alpha = channels[0].alpha
    n_users = len(channels)
    out = np.zeros(n_users)
    for k in range(n_users):
        f_hat = sel.select(channels[k].h_est)
        p_d = float(bf.p_down[k])
        num = np.linalg.norm(f_hat.conj().T @ bf.w_down[k]) ** 2
        den = 0.0
        for i in range(n_users):
            if i != k:
                den += np.linalg.norm(f_hat.conj().T @ bf.w_down[i]) ** 2
        err = 0.0
        for i in range(n_users):
            d_sel = sel.select(channels[i].delta)
            err += np.linalg.norm(d_sel.conj().T @ bf.w_down[i]) ** 2
        den += alpha ** 2 / (1.0 - alpha ** 2) * err
        if xtalk is not None:
            for i in range(n_users):
                if xtalk[k][i] is None:
                    continue
                den += float(bf.p_up[i]) / ((1.0 - alpha ** 2) * p_d) \
                    * np.linalg.norm(np.asarray(xtalk[k][i]).conj().T @ bf.w_up[i]) ** 2
        den += noise_d / ((1.0 - alpha ** 2) * p_d)
        den += noise_s / (rho * (1.0 - alpha ** 2) * p_d)
        out[k] = num / den
    return SinrReport(downlink=out, noise={"sigma_d": noise_d, "sigma_s": noise_s})


# ---------------------------------------------------------------------------
# link geometry of stacked draws
# ---------------------------------------------------------------------------
# Stacks carry the users on axis -3: channels (..., k, n_active, n_u),
# uplink precoders (..., k, n_u, n_u). These are the power-independent parts
# of the two SINR maps above, one array pass per stack. Every matrix goes
# through the LAPACK or BLAS routine, with the strides, that the per-draw
# functions use, so the results equal theirs bit for bit.

def _fro_norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix over the last two axes of complex x.

    Like ``np.linalg.norm`` it adds the dot products of the real and the
    imaginary parts; a (1, n) @ (n, 1) matmul calls the same BLAS dot."""
    flat = x.reshape(*x.shape[:-2], 1, -1)
    re, im = flat.real, flat.imag
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def sq_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(m) ** 2`` of every matrix m over the last two axes
    of complex x. The square goes through C ``pow``, as the scalar
    ``** 2`` does; ``np.square`` can differ from it in the last bit."""
    nrm = _fro_norms(x)
    return np.array([v ** 2 for v in nrm.ravel().tolist()]).reshape(nrm.shape)


def normalized(x: np.ndarray) -> np.ndarray:
    """Every matrix over the last two axes of complex x divided by its
    Frobenius norm."""
    return x / _fro_norms(x)[..., None, None]


def link_gains(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """||a^H w||_F^2 for stacked channels a and precoders w, both
    (..., n_active, n_u); leading axes broadcast."""
    return sq_norms(np.conj(a).swapaxes(-1, -2) @ w)


def mrt_precoders(h_sel: np.ndarray) -> np.ndarray:
    """Unit-norm MRT downlink precoders conj(h) of stacked selected
    estimated channels."""
    return normalized(np.conj(h_sel))


def zf_noise_gains(h_sel: np.ndarray, w_up: np.ndarray) -> np.ndarray:
    """Per user, the n_u stream entries of diag(inv(H^H H)) that
    :func:`uplink_sinr` projects the noise through, shape (..., k, n_u).

    H is user k's stacked ZF channel without a self-interference column:
    its selected estimated channel, then every other user's effective
    column h_i w_i. Raises :class:`ConditioningError` as
    :func:`uplink_sinr` does when any stack is too ill-conditioned."""
    k, n_u = h_sel.shape[-3], h_sel.shape[-1]
    cols = h_sel @ w_up
    out = np.empty(h_sel.shape[:-2] + (n_u,))
    for u in range(k):
        h_check = np.concatenate([h_sel[..., u, :, :]]
                                 + [cols[..., i, :, :]
                                    for i in range(k) if i != u], axis=-1)
        _check_conditioning(h_check)
        gram_inv = np.linalg.inv(h_check.conj().swapaxes(-1, -2) @ h_check)
        diag = np.diagonal(gram_inv, axis1=-2, axis2=-1)
        out[..., u, :] = diag[..., :n_u].real
    return out


# ---------------------------------------------------------------------------
# harvesting, rate
# ---------------------------------------------------------------------------

def harvested_energy(eh_power: float, efficiency: float, slot: float,
                     delta_e: float, cap: int) -> int:
    """Quantized harvested energy units: floor(eta * P_eh * slot / dE),
    at most ``cap`` (capped before the floor, so an overflow to infinity
    gives ``cap``)."""
    if min(efficiency, slot, delta_e) <= 0 or eh_power < 0:
        raise ValueError("inputs must be positive (eh_power nonnegative)")
    return math.floor(min(efficiency * eh_power * slot / delta_e, cap))


def achievable_rate(sinr: float, bandwidth: float, slot: float,
                    packet_bits: float) -> float:
    """Whole packets per slot under the Shannon mapping, as a float, so
    that a count past any integer type reads as it is (or as inf)."""
    if sinr < 0:
        raise ValueError("SINR must be nonnegative")
    return np.floor(bandwidth * slot * math.log2(1.0 + sinr) / packet_bits)
