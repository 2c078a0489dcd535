"""Weighted nonlinear least squares with Gauss-Newton covariance.

Covariances are (J^T W J)^-1 with W = 1/sigma^2, i.e. the reported
uncertainties take the supplied error bars at face value (no reduced-chi^2
rescaling); the coverage studies in the tests rely on that convention.
"""

import math
from dataclasses import dataclass, field

import numpy as np


GN_MAX_ITERATIONS = 200
GN_TOL = 1e-12  # stop when a step improves the cost by less than this (relative)
BRENT_RTOL = 4 * np.finfo(float).eps  # scipy.optimize.brentq's default rtol
BRENT_MAX_ITERATIONS = 100  # and its default maxiter


class FitError(RuntimeError):
    pass


def brentq(f, xa, xb, xtol):
    """Root of ``f`` in the sign-changing bracket [xa, xb] by Brent's method
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4).

    A line-for-line port of scipy's ``Zeros/brentq.c`` at its default rtol
    and maxiter: the same inverse-quadratic/secant steps, bisection
    fallbacks and sign tests, so it returns scipy.optimize.brentq's root
    bit for bit without importing scipy.optimize.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAX_ITERATIONS):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"brentq failed to converge after "
                       f"{BRENT_MAX_ITERATIONS} iterations, value is {xcur}")


def gauss_newton(model, p0, x, y, sigma, bounds):
    """Levenberg-damped Gauss-Newton minimizing sum(((y-model)/sigma)^2),
    each step clipped to ``bounds`` = (lower, upper).

    Returns (params, covariance, residual_norm, converged).
    """
    p = np.asarray(p0, dtype=float).copy()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = 1.0 / np.asarray(sigma, dtype=float)
    lo, hi = bounds

    def residuals(pp):
        return (y - model(pp, x)) * w

    def jac(pp):  # forward differences
        out = np.empty((len(y), len(pp)))
        r0 = residuals(pp)
        for i in range(len(pp)):
            h = 1e-7 * max(abs(pp[i]), 1e-7)
            pp2 = pp.copy()
            pp2[i] += h
            out[:, i] = (residuals(pp2) - r0) / h
        return out

    r = residuals(p)
    cost = float(r @ r)
    lam = 1e-6
    converged = False
    for _ in range(GN_MAX_ITERATIONS):
        j = jac(p)
        g = j.T @ r
        h = j.T @ j
        stepped = False
        for _ in range(25):
            try:
                step = np.linalg.solve(h + lam * np.diag(np.maximum(np.diag(h), 1e-12)), -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            p_new = np.clip(p + step, lo, hi)
            r_new = residuals(p_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                stepped = True
                break
            lam *= 10
        if not stepped:
            converged = True
            break
        improvement = cost - cost_new
        p, r, cost = p_new, r_new, cost_new
        lam = max(lam / 5, 1e-14)
        if improvement < GN_TOL * max(cost, 1.0):
            converged = True
            break
    j = jac(p)
    h = j.T @ j
    try:
        cov = np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise FitError("singular normal equations at the fit optimum") from exc
    return p, cov, float(np.sqrt(cost)), converged


@dataclass(frozen=True)
class DecayFit:
    """Fitted survival decay P(N) = a * F^N + b at a fixed offset b."""

    amplitude: float
    fidelity: float
    covariance: np.ndarray = field(repr=False)
    residual_norm: float
    offset: float = 0.0
    converged: bool = True

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError("fitted fidelity outside [0, 1]")
        if np.any(np.diag(self.covariance) < 0):
            raise ValueError("negative variance in fit covariance")

    @property
    def fidelity_err(self) -> float:
        return float(np.sqrt(self.covariance[1, 1]))


def fit_power_decay(n, y, sigma, offset) -> DecayFit:
    """Fit P = a * F^n + offset with the offset fixed.

    Used for both two-qubit return-probability decays (offset 0) and
    randomized-benchmarking survivals (offset 0.5).
    """
    n = np.asarray(n, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(set(n.ravel().tolist())) < 3:
        raise FitError("need at least 3 distinct lengths")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(sigma))):
        raise FitError("decay values and sigmas must be finite")

    pos = np.clip(y - offset, 1e-6, None)
    slope, intercept = np.polyfit(n, np.log(pos), 1)
    f0 = float(np.clip(np.exp(slope), 1e-3, 1.0))
    a0 = float(np.clip(np.exp(intercept), 1e-3, 2.0))

    def model(p, x):
        return p[0] * p[1] ** x + offset

    p, cov, rn, conv = gauss_newton(model, [a0, f0], n, y, sigma,
                                    ([0.0, 0.0], [2.0, 1.0]))
    return DecayFit(
        amplitude=float(p[0]),
        fidelity=float(min(max(p[1], 0.0), 1.0)),
        covariance=cov,
        residual_norm=rn,
        offset=offset,
        converged=conv,
    )


def fit_sinusoid_fixed_period(phases, values, period, sigma=None):
    """Least-squares fit of y = offset + C*cos(2 pi phase/period + delta).

    Linear in (offset, A, B); returns (contrast C, phase delta, offset) with
    the contrast standard error.
    """
    phases = np.asarray(phases, dtype=float)
    values = np.asarray(values, dtype=float)
    w = np.ones_like(values) if sigma is None else 1.0 / np.asarray(sigma)
    omega = 2 * np.pi / period
    design = np.column_stack(
        [np.ones_like(phases), np.cos(omega * phases), np.sin(omega * phases)]
    )
    coef, *_ = np.linalg.lstsq(design * w[:, None], values * w, rcond=None)
    off, a, b = coef
    contrast = float(np.hypot(a, b))
    delta = float(np.arctan2(-b, a))
    try:
        cov = np.linalg.inv((design * w[:, None]).T @ (design * w[:, None]))
        if contrast > 0:
            grad = np.array([0.0, a / contrast, b / contrast])
            c_err = float(np.sqrt(grad @ cov @ grad))
        else:
            c_err = float(np.sqrt(max(cov[1, 1], cov[2, 2])))
    except np.linalg.LinAlgError:
        c_err = np.nan
    return contrast, delta, float(off), c_err
