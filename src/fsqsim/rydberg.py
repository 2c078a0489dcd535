"""Two-atom Rydberg drive and the phase-modulated CZ gate.

The drive couples q1 <-> r on both atoms with a common laser phase phi(t);
doubly excited pairs are shifted by the interaction V. Only {q1, r} take part
in the dynamics, so the noiseless propagator factorizes into a 2x2 block (one
atom driven, partner frozen) and a 4x4 block (both atoms driven), propagated
together as a single 6x6 Schrodinger problem -- the two-atom Hamiltonian
restricted to the six driven product states -- and then assembled into the
full 36x36 unitary. The sector propagator is a fixed-step product of exact
6x6 exponentials (the fourth-order commutator-free Magnus scheme CF4:2); the
master-equation path uses the full space.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels._lindblad_py import GAUSS_NODES, WEIGHT_MINUS, WEIGHT_PLUS
from .lindblad import ModulatedDrive
from .levels import DIM, Q0, Q1, R, full_index, lop, unravel_index
from .noise import read_key_values
from .states import embed_local

OMEGA_DEFAULT = 2 * np.pi * 6.0  # rad/us
V_DEFAULT = 2 * np.pi * 114.0  # rad/us
RESIDUAL_RYDBERG_THRESHOLD = 0.01


@dataclass(frozen=True)
class RydbergDrive:
    """Global q1 <-> r coupling; V is an input, never computed."""

    rabi_frequency: float = OMEGA_DEFAULT
    detuning: float = 0.0
    interaction: float = V_DEFAULT

    def __post_init__(self):
        if self.rabi_frequency < 0:
            raise ValueError("Rabi frequency must be non-negative")


_PROFILE_KEYS = (  # the keys of CZPulseProfile.to_text
    "theta1_rad", "theta2_rad", "theta3_rad_per_us", "theta4_rad",
    "t_gate_us", "phi_sq_rad", "omega_rad_per_us", "v_rad_per_us",
)


@dataclass(frozen=True)
class CZPulseProfile:
    """Cosine-plus-linear phase modulation over one gate.

    phi(t) = theta[0]*cos(2 pi t / t_gate - theta[1]) + theta[2]*t + theta[3]
    """

    theta: tuple
    t_gate: float
    phi_sq: float = 0.0

    def __post_init__(self):
        if self.t_gate <= 0:
            raise ValueError("gate duration must be positive")
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))
        if len(self.theta) != 4:
            raise ValueError("profile needs four modulation parameters")

    def phase(self, t):
        th = self.theta
        return (
            th[0] * np.cos(2 * np.pi * t / self.t_gate - th[1])
            + th[2] * t
            + th[3]
        )

    def modulation(self):
        """(amp, freq, offset, slope, const) for the structured integrator."""
        th = self.theta
        return th[0], 2 * np.pi / self.t_gate, -th[1], th[2], th[3]

    def to_text(self, drive: RydbergDrive | None = None) -> str:
        lines = [
            f"theta1_rad = {self.theta[0]!r}",
            f"theta2_rad = {self.theta[1]!r}",
            f"theta3_rad_per_us = {self.theta[2]!r}",
            f"theta4_rad = {self.theta[3]!r}",
            f"t_gate_us = {self.t_gate!r}",
            f"phi_sq_rad = {self.phi_sq!r}",
        ]
        if drive is not None:
            lines.append(f"omega_rad_per_us = {drive.rabi_frequency!r}")
            lines.append(f"v_rad_per_us = {drive.interaction!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str):
        """Parse the key-value document; returns (profile, drive-or-None).
        Unknown keys, lines without ``=`` and bad numbers are rejected."""
        kv = read_key_values(text, _PROFILE_KEYS)
        try:
            profile = cls(
                theta=(
                    kv["theta1_rad"],
                    kv["theta2_rad"],
                    kv["theta3_rad_per_us"],
                    kv["theta4_rad"],
                ),
                t_gate=kv["t_gate_us"],
                phi_sq=kv.get("phi_sq_rad", 0.0),
            )
        except KeyError as exc:
            raise ValueError(f"missing profile key: {exc}") from exc
        drive = None
        if "omega_rad_per_us" in kv:
            drive = RydbergDrive(
                rabi_frequency=kv["omega_rad_per_us"],
                interaction=kv.get("v_rad_per_us", V_DEFAULT),
            )
        return profile, drive


def hamiltonian_parts(drive: RydbergDrive):
    """Two-atom static part and drive coupling: H(t) = h0 + e^{i phi} C + h.c."""
    h0 = np.zeros((DIM**2, DIM**2), dtype=complex)
    coup = np.zeros((DIM**2, DIM**2), dtype=complex)
    for a in range(2):
        nr = embed_local(lop(R, R), a, 2)
        h0 -= drive.detuning * nr
        coup += (drive.rabi_frequency / 2) * embed_local(lop(Q1, R), a, 2)
    rr = full_index([R, R])
    h0[rr, rr] += drive.interaction
    return h0, coup


def rydberg_count_diag() -> np.ndarray:
    """Two-atom diagonal counting Rydberg excitations; -delta couples via
    this."""
    diag = np.zeros(DIM**2)
    for a in range(2):
        diag += np.diag(embed_local(lop(R, R), a, 2)).real
    return diag


# The product states the drive couples, as full-space indices: the 2-state
# sector (one atom driven, partner frozen in q0) and the 4-state sector (both
# atoms driven). The sector problem is the two-atom Hamiltonian restricted to
# these states.
_SECTOR = tuple(
    full_index(lv)
    for lv in ((Q1, Q0), (R, Q0), (Q1, Q1), (Q1, R), (R, Q1), (R, R))
)


# CF4:2, the fourth-order commutator-free Magnus scheme, with the nodes and
# weights of the master-equation engine. Steps per radian of
# ||H||_inf * t_gate (the 6x6 sector norm) over a modulated gate: the default
# gate at V / Omega = 19 takes 309 steps, max entry error ~1e-8; the error
# falls 16x per doubling.
STEPS_PER_RADIAN = 2.0
# Nodes exponentiated together (steps x Gauss nodes x members): a solo gate
# or a 40-member stack over one detuning piece is one batch, and memory does
# not grow with the member count beyond it.
EIGH_BATCH = 4096


def _exchange_basis():
    """(x, pair, chain, dark): the orthogonal change from the sector states
    to their atom-exchange basis (rows of ``x``) and the slices of its three
    blocks.

    The drive acts alike on both atoms, so it commutes with the atom swap
    |a1 a2> -> |a2 a1>. A sector state whose swap image lies outside the
    sector (one atom driven, partner frozen in q0) stays as it is: the
    one-atom pair. A state the swap fixes stays; a swapped couple i < j
    becomes (e_i + e_j)/sqrt2 and (e_i - e_j)/sqrt2. The symmetric states
    form the chain q1q1 -- W+ -- rr, coupled at sqrt2 Omega/2, and the
    antisymmetric W- is dark (Levine et al., PRL 123, 170503 (2019)).
    """
    images = [full_index(unravel_index(i, 2)[::-1]) for i in _SECTOR]
    eye = np.eye(len(_SECTOR))
    one, sym, anti = [], [], []
    for k, image in enumerate(images):
        j = _SECTOR.index(image) if image in _SECTOR else None
        if j is None:
            one.append(eye[k])
        elif j == k:
            sym.append(eye[k])
        elif k < j:
            sym.append((eye[k] + eye[j]) / math.sqrt(2))
            anti.append((eye[k] - eye[j]) / math.sqrt(2))
    cuts = np.cumsum([0, len(one), len(sym), len(anti)])
    return (np.array(one + sym + anti),
            *(slice(int(a), int(b)) for a, b in zip(cuts, cuts[1:])))


_EXCHANGE, _PAIR, _CHAIN, _DARK = _exchange_basis()


@lru_cache(maxsize=64)
def _sector_parts(drive: RydbergDrive):
    """(norm, static diagonal, detuning diagonal, coupling superdiagonal) of
    the sector problem in the exchange basis, where every part is
    tridiagonal within its block; ``norm`` is ||h0 + C + C^dag||_inf of the
    6x6 product-state problem, which sets the step count."""
    idx = np.ix_(_SECTOR, _SECTOR)
    h0, coup = (m[idx] for m in hamiltonian_parts(drive))
    norm = np.abs(h0 + coup + coup.conj().T).sum(axis=1).max()
    x = _EXCHANGE
    ndiag = np.diag(rydberg_count_diag()[list(_SECTOR)])
    parts = (np.diag(x @ h0 @ x.T).real, np.diag(x @ ndiag @ x.T),
             np.diagonal(x @ coup @ x.T, 1).copy())
    for m in parts:
        m.setflags(write=False)
    return (norm, *parts)


def _piece_value(edges, values, t: float):
    values = np.asarray(values, dtype=float)
    j = np.searchsorted(edges, t, side="right") - 1
    v = values[..., min(max(j, 0), values.shape[-1] - 1)]
    return float(v) if v.ndim == 0 else v  # one value per stack member


def detuning_segments(edges, values, duration: float) -> list:
    """(t0, t1, delta) pieces of [0, duration] with a constant detuning.

    ``values[..., k]`` holds from ``edges[k]`` on; with ``values`` None the
    whole span is one zero-detuning piece. Empty pieces are dropped.
    """
    if values is None:
        return [(0.0, duration, 0.0)] if duration > 0 else []
    edges = np.asarray(edges, dtype=float)
    cuts = [0.0] + [float(e) for e in edges if 0.0 < e < duration] + [duration]
    return [
        (t0, t1, _piece_value(edges, values, 0.5 * (t0 + t1)))
        for t0, t1 in zip(cuts, cuts[1:])
        if t1 > t0
    ]


# The sector's small matrices are stored with their two indices leading,
# (n, n, *batch), so that a product over a stack is a handful of whole-array
# operations rather than one tiny matmul per member.
def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of matrices with their indices leading."""
    return np.einsum("ij...,jk...->ik...", a, b)


def _time_ordered_product(m: np.ndarray) -> np.ndarray:
    """m[:, :, -1] @ ... @ m[:, :, 1] @ m[:, :, 0] over the first batch axis,
    as a pairwise tree: one stacked product per level."""
    while m.shape[2] > 1:
        pairs = _matmul(m[:, :, 1::2], m[:, :, :m.shape[2] - 1:2])
        m = (np.concatenate([pairs, m[:, :, -1:]], axis=2)
             if m.shape[2] % 2 else pairs)
    return m[:, :, 0]


def _pair_exponentials(d: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """exp(-i h A), indices leading, of the Hermitian A = [[d0, g],
    [conj g, d1]] in closed form, for real ``d`` (2, ...) and complex ``g``
    (...): with m the mean of the diagonal, (A - m)^2 = w^2."""
    gap = 0.5 * (d[0] - d[1])
    w = np.sqrt(gap**2 + np.abs(g) ** 2)
    c = np.cos(h * w)
    s = -1j * h * np.sinc(h * w / np.pi)  # -i sin(h w) / w
    return np.exp(-0.5j * h * (d[0] + d[1])) * np.array(
        [[c + s * gap, s * g], [s * np.conj(g), c - s * gap]])


def _chain_exponentials(d: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """exp(-i h A), indices leading, of the Hermitian tridiagonal A with
    real diagonal ``d`` (n, ...) and superdiagonal ``g`` (n - 1, ...). The
    phase gauge D = diag(1, e^{-i arg g0}, e^{-i (arg g0 + arg g1)}, ...)
    makes D^dag A D real symmetric, so one real ``eigh`` of the stack
    gives them all."""
    n = len(d)
    t = np.zeros(d.shape[1:] + (n, n))
    t[..., range(n), range(n)] = np.moveaxis(d, 0, -1)
    t[..., range(n - 1), range(1, n)] = t[..., range(1, n), range(n - 1)] = (
        np.moveaxis(np.abs(g), 0, -1))
    w, v = np.linalg.eigh(t)
    v = np.ascontiguousarray(np.moveaxis(v, (-2, -1), (0, 1)))
    phases = np.exp(-1j * h * np.moveaxis(w, -1, 0))
    e = np.einsum("jm...,km...->jk...", v * phases, v)
    gauge = np.exp(-1j * np.cumsum(np.angle(g), axis=0))
    gauge = np.concatenate([np.ones((1,) + gauge.shape[1:]), gauge])
    return gauge[:, None] * np.conj(gauge)[None, :] * e


def sector_unitaries(
    profile,
    drive: RydbergDrive,
    detuning_edges=None,
    detuning_values=None,
):
    """(u2, u4) propagators of the driven sectors over one gate.

    ``profile`` is one :class:`CZPulseProfile` or a sequence of them. A
    sequence is propagated as one stack in normalized time: the clock runs
    over the first member's gate and member m reads it scaled by
    t_gate[m] / t_gate[0], so members with different gate times share one
    step grid (with equal gate times the scale is exactly 1 and each member's
    steps are the ones a solo call takes). Optional piecewise-constant extra
    detuning (common to both atoms, edges in us) models sampled laser
    frequency noise; ``(members, n_pieces)`` values stack along the same
    member axis, a constant is the one piece ``edges=[0.0]``, and detuning
    needs one gate time for every member. A stack gives ``(members, 2, 2)``
    and ``(members, 4, 4)``.

    The propagator is a fixed-step CF4:2 Magnus product: each step is two
    exact exponentials of the sector Hamiltonian, and the steps multiply as
    a pairwise tree. The Hamiltonian is taken in the atom-exchange basis of
    :func:`_exchange_basis` (Levine et al., PRL 123, 170503 (2019); Jandura
    & Pupillo, Quantum 6, 712 (2022)), where it splits into the one-atom
    pair, exponentiated in closed form; the symmetric chain
    q1q1 -- W+ -- rr, from one real ``eigh`` of the stack after a phase
    gauge; and the dark W-, which only takes a phase. A modulated gate takes
    ceil(STEPS_PER_RADIAN * ||H||_inf * t_gate) steps, with ||H||_inf the
    6x6 sector norm (the largest over the stack, without the detuning
    pieces), spread over the detuning pieces by length; the phase only
    rotates the couplings, so ||H||_inf is the same at every t. Without
    phase modulation (theta[0] == theta[2] == 0 for every member) H is
    constant on each piece, which then takes one step and is exact.
    """
    solo = isinstance(profile, CZPulseProfile)
    profiles = [profile] if solo else list(profile)
    shape = () if solo else (len(profiles),)
    th1, th2, th3, th4 = (  # [()] turns a solo 0-d array into a scalar
        np.reshape([p.theta[i] for p in profiles], shape)[()] for i in range(4)
    )
    t_ref = profiles[0].t_gate
    rate = np.reshape([p.t_gate for p in profiles], shape)[()] / t_ref
    if detuning_values is not None and np.ptp(rate) > 0:
        raise ValueError("detuning pieces need one gate time for every member")
    norm, h0, ndiag, coup = _sector_parts(drive)
    offset, slope = -th2, th3 * rate
    freq = 2 * np.pi / t_ref  # every member's cosine period on this clock
    modulated = np.any(th1) or np.any(th3)
    if not math.isfinite(norm):
        raise ValueError(f"the generator norm is not finite ({norm}): a "
                         f"field of {drive} is not finite")
    n_gate = math.ceil(STEPS_PER_RADIAN * norm * t_ref * np.max(rate))

    u_pair, u_chain, u_dark = np.eye(2), np.eye(3), 1.0
    for t0, t1, det in detuning_segments(detuning_edges, detuning_values, t_ref):
        # the static part, exchange-basis index leading
        static = np.moveaxis(np.asarray(rate)[..., None]
                             * (h0 - np.multiply.outer(det, ndiag)), -1, 0)
        u_dark = np.exp(-1j * (t1 - t0) * static[_DARK][0]) * u_dark
        n = max(1, math.ceil(n_gate * (t1 - t0) / t_ref)) if modulated else 1
        h = (t1 - t0) / n
        stack = static.shape[1:]
        node_shape = (-1, 2) + (1,) * len(stack)  # steps x nodes x members
        chunk = max(1, EIGH_BATCH // (len(GAUSS_NODES) * math.prod(stack)))
        for j0 in range(0, n, chunk):
            j = np.arange(j0, min(j0 + chunk, n))
            t = (t0 + h * (j[:, None] + GAUSS_NODES)).reshape(node_shape)
            e = np.exp(1j * (th1 * np.cos(freq * t + offset) + slope * t))
            f = rate * np.exp(1j * th4) * np.broadcast_to(
                WEIGHT_PLUS * e + WEIGHT_MINUS * e[:, ::-1], (len(j), 2) + stack)
            # a+ + a- = 1/2: each exponent holds half of the static part
            d = np.broadcast_to(0.5 * static[:, None, None],
                                static.shape[:1] + f.shape)
            # superdiagonal entry k couples k and k + 1, so a block's own
            # couplings are its entries but the last
            g = np.multiply.outer(coup, f)
            pair = _pair_exponentials(d[_PAIR], g[_PAIR][0], h)
            chain = _chain_exponentials(d[_CHAIN], g[_CHAIN][:-1], h)
            u_pair = _matmul(_time_ordered_product(
                pair.reshape(2, 2, -1, *stack)), u_pair)
            u_chain = _matmul(_time_ordered_product(
                chain.reshape(3, 3, -1, *stack)), u_chain)
    x = _EXCHANGE
    u = np.zeros(np.shape(u_dark) + (len(x), len(x)), dtype=complex)
    u[..., _PAIR, _PAIR] = np.moveaxis(u_pair, (0, 1), (-2, -1))
    u[..., _CHAIN, _CHAIN] = np.moveaxis(u_chain, (0, 1), (-2, -1))
    u[..., _DARK, _DARK] = np.asarray(u_dark)[..., None, None]
    u = x.T @ u @ x
    return u[..., :2, :2].copy(), u[..., 2:, 2:].copy()


def assemble_unitary(u2: np.ndarray, u4: np.ndarray) -> np.ndarray:
    """Build the full 36x36 gate unitary from the sector propagators: ``u2``
    on either atom's driven pair beside each frozen partner level, ``u4`` on
    the doubly driven states, identity elsewhere."""
    u = np.eye(DIM**2, dtype=complex)
    driven = [unravel_index(i, 2)[0] for i in _SECTOR[:2]]
    for f in set(range(DIM)).difference(driven):
        for block in ([full_index([a, f]) for a in driven],
                      [full_index([f, a]) for a in driven]):
            u[np.ix_(block, block)] = u2
    u[np.ix_(_SECTOR[2:], _SECTOR[2:])] = u4
    return u


def computational_amplitudes(u2: np.ndarray, u4: np.ndarray):
    """(a01, a11): return amplitudes of |q0 q1> and |q1 q1|."""
    return u2[..., 0, 0], u4[..., 0, 0]


def cz_average_fidelity(a01, a11, phi_sq=None):
    """Average gate fidelity against CZ up to a single-qubit phase.

    With M = U_ideal(phi)^dag U restricted to the computational subspace,
    F = (|tr M|^2 + tr M^dag M) / 20; if phi_sq is None the single-qubit
    phase is optimized out in closed form. With z = e^{-i phi},
    tr M = 1 + 2 a01 z - a11 z^2 and on the unit circle |tr M|^2 = q(z) / z^2
    with q of degree 4, so the maximum is at phi = -arg z for a root z of
    z q'(z) - 2 q(z), or at phi = 0 where that vanishes (a01 = a11 = 0).
    """

    def fid(phi):
        trm = 1.0 + 2 * a01 * np.exp(-1j * phi) + a11 * np.exp(-1j * (2 * phi - np.pi))
        return (abs(trm) ** 2 + 1.0 + 2 * abs(a01) ** 2 + abs(a11) ** 2) / 20.0

    if phi_sq is not None:
        return fid(phi_sq), phi_sq
    trm = np.array([-a11, 2 * a01, 1.0])  # coefficients in z, highest first
    q = np.convolve(trm, np.conj(trm[::-1]))  # tr M z^2 conj(tr M) on |z| = 1
    r = np.arange(2, -3, -1) * q  # z q' - 2 q
    # coefficients below the rounding of the largest are zero: a tiny
    # leading one (a11 -> 0) would put a root near infinity and spoil the rest
    r = r / max(np.max(np.abs(r)), np.finfo(float).tiny)
    r[np.abs(r) <= np.finfo(float).eps] = 0.0
    roots = np.roots(r)
    candidates = np.concatenate([[0.0], -np.angle(roots)])
    phi = float(candidates[np.argmax(fid(candidates))])
    return fid(phi), phi


def extract_phi_sq(u2: np.ndarray) -> float:
    """Single-qubit phase acquired by q1 when the partner stays in q0."""
    return float(np.angle(u2[0, 0]))


def residual_rydberg_population(u2: np.ndarray, u4: np.ndarray) -> float:
    """Worst-case population left in r at gate end over computational inputs."""
    p01 = abs(u2[1, 0]) ** 2
    p11 = abs(u4[1, 0]) ** 2 + abs(u4[2, 0]) ** 2 + abs(u4[3, 0]) ** 2
    return float(max(p01, p11))


def modulated_drive(
    profile: CZPulseProfile,
    drive: RydbergDrive,
    detuning: float,
) -> ModulatedDrive:
    """Two-atom structured drive for master-equation propagation, with an
    extra constant ``detuning`` (rad/us, common to both atoms) folded into
    the static part: r shifts by -detuning, rr by -2 detuning."""
    h0, coup = hamiltonian_parts(drive)
    h0[np.diag_indices_from(h0)] -= detuning * rydberg_count_diag()
    amp, freq, offset, slope, const = profile.modulation()
    return ModulatedDrive(
        h0=h0,
        coupling=coup * np.exp(1j * const),
        phase_amp=amp,
        phase_freq=freq,
        phase_offset=offset,
        phase_slope=slope,
    )


def time_optimal_cz(profile: CZPulseProfile, drive: RydbergDrive):
    """The 36x36 unitary of the noiseless phase-modulated CZ gate.

    A warning is emitted if Rydberg population has not returned at the end
    of the pulse.
    """
    u2, u4 = sector_unitaries(profile, drive)
    res = residual_rydberg_population(u2, u4)
    if res > RESIDUAL_RYDBERG_THRESHOLD:
        warnings.warn(
            f"gate not closed: residual Rydberg population {res:.3g}",
            stacklevel=2,
        )
    return assemble_unitary(u2, u4)
