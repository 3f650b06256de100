"""Reference model of the per-point chain, written from the published
formulas and imported by the benchmark only.

It imports nothing from qkdcoex. A link is a flat dict of numbers (see
`inputs.py` for how presets and generated INI files become one):

    loss      = alpha * d + sum(IL)                          [dB]
    launch    = min(loss_c + sensitivity, cap) if adaptive else cap
    SRS       = P * rho * d * 10^(-alpha_raman * d / 10)     [counts/s]
    Y0        = n_det * dark * gate / clock + SRS / divisor
    Q_x       = Y0 + 1 - exp(-eta x),   E_x Q_x = e0 Y0 + ed (1 - exp(-eta x))
    Y1L, e1U  = vacuum+weak decoy bounds (Ma, Qi, Zhao, Lo, PRA 72, 012326)
    R         = q (Q1 (1 - H2(e1U)) - f Q_mu H2(E_mu)) * clock * p_mu  (GLLP)

Every quantity that can cancel comes with an error scale: the sum of the
magnitudes of the terms it was made from, propagated through the bounds.
Two correct implementations that order their floating-point operations
differently agree to a small multiple of 1e-16 of that scale, which is what
the checks compare against (see README.md).
"""

from __future__ import annotations

import math

E0 = 0.5              # error rate of a background count
FEASIBLE_SLACK_DB = 1e-9
Y0_MAX = math.nextafter(1.0, 0.0)
ED_GRID = [i * 0.001 for i in range(51)]        # misalignment error 0 .. 0.05
F_GRID = [1.0 + j * 0.01 for j in range(51)]    # EC efficiency 1.0 .. 1.5
QBER_SCALE = 0.005


def h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _dh2(x: float) -> float:
    """|dH2/dx|, bounded away from the endpoints."""
    x = min(max(x, 1e-300), 0.5)
    return abs(math.log2((1.0 - x) / x))


def channel(p: dict, d: float) -> dict:
    """Link budget, Raman noise and background yield at distance d."""
    loss_q = p["alpha_q"] * d + sum(p["il_q"])
    loss_c = p["alpha_c"] * d + sum(p["il_c"])
    needed = loss_c + p["sens_dbm"]
    cap = p["launch_dbm"]
    launch = min(needed, cap) if p["adaptive"] else cap
    srs = 10.0 ** (launch / 10.0) * p["rho"] * d * 10.0 ** (-p["alpha_r"] * d / 10.0)
    divisor = p["gate_hz"] if p["divisor"] == "gate" else p["clock"]
    dark = p["n_det"] * p["dark"] * p["gate_hz"] / p["clock"]
    y0 = min(Y0_MAX, dark + min(1.0, srs / divisor))
    return {
        "distance_km": d,
        "launch_power_dbm": launch,
        "quantum_loss_db": loss_q,
        "classical_loss_db": loss_c,
        "srs_rate_cps": srs,
        "y0": y0,
        "eta": 10.0 ** (-loss_q / 10.0) * p["eff"],
        "classical_feasible": launch + FEASIBLE_SLACK_DB >= needed,
        "closure_margin_db": launch - needed,
    }


def key_rate(p: dict, eta: float, y0: float, ed: float, f: float) -> dict:
    """Gains, decoy bounds and rate, each with its error scale."""
    mu, nu = p["mu"], p["nu"]

    def gain(x):
        signal = -math.expm1(-eta * x)
        q = y0 + signal
        return q, (E0 * y0 + ed * signal) / q if q > 0.0 else E0

    q_mu, e_mu = gain(mu)
    q_nu, e_nu = gain(nu)

    k = mu / (mu * nu - nu * nu)
    terms = (q_nu * math.exp(nu), -q_mu * math.exp(mu) * nu * nu / (mu * mu),
             -(mu * mu - nu * nu) / (mu * mu) * y0)
    y1_raw = k * sum(terms)
    y1_scale = k * sum(abs(t) for t in terms)
    y1 = min(1.0, max(0.0, y1_raw))

    to_bps = p["q_sift"] * p["clock"] * p["p_mu"]
    t_ec = f * q_mu * h2(e_mu)
    if y1 <= 0.0:
        e1, e1_scale, t_1, q1 = 0.5, math.inf, 0.0, 0.0
    else:
        n1, n0 = e_nu * q_nu * math.exp(nu), E0 * y0
        e1_raw = (n1 - n0) / (y1 * nu)
        e1_scale = (abs(n1) + abs(n0)) / (y1 * nu) + abs(e1_raw) * y1_scale / y1
        e1 = min(0.5, max(0.0, e1_raw))
        q1 = y1 * mu * math.exp(-mu)
        t_1 = q1 * (1.0 - h2(e1))
    rate_raw = (t_1 - t_ec) * to_bps
    rate_scale = (t_1 + t_ec + mu * math.exp(-mu) * y1_scale
                  + (q1 * _dh2(e1) * e1_scale if q1 > 0.0 else 0.0)) * to_bps
    return {
        "q_mu": q_mu, "e_mu": e_mu,
        "y1_lower": y1, "e1_upper": e1,
        "key_rate_bps": max(0.0, rate_raw),
        "rate_raw": rate_raw,
        "scale": {"q_mu": q_mu, "e_mu": e_mu, "y1_lower": y1_scale,
                  "e1_upper": e1_scale, "key_rate_bps": rate_scale},
    }


def point(p: dict, d: float) -> dict:
    """One result row of the sweep schema, plus error scales."""
    ch = channel(p, d)
    kr = key_rate(p, ch["eta"], ch["y0"], p["ed"], p["f"])
    row = {**ch, **kr}
    row["scale"] = {
        "distance_km": abs(d),
        "launch_power_dbm": abs(ch["launch_power_dbm"]) + abs(p["sens_dbm"]),
        "quantum_loss_db": ch["quantum_loss_db"],
        "classical_loss_db": ch["classical_loss_db"],
        "srs_rate_cps": ch["srs_rate_cps"],
        "y0": ch["y0"],
        **kr["scale"],
    }
    return row


def rate_with_budget(p: dict, d: float, budget: bool) -> tuple[float, float]:
    """(unclamped rate, its error scale) as the cliff search sees it: with
    the budget on, a point where the classical link does not close has rate 0."""
    ch = channel(p, d)
    if budget and not ch["classical_feasible"]:
        return 0.0, 0.0
    kr = key_rate(p, ch["eta"], ch["y0"], p["ed"], p["f"])
    return kr["rate_raw"], kr["scale"]["key_rate_bps"]


def _objective(links, chans, targets, ed, f):
    total = 0.0
    for p, ch, (_, rate_t, qber_t) in zip(links, chans, targets):
        kr = key_rate(p, ch["eta"], ch["y0"], ed, f)
        if kr["key_rate_bps"] <= 0.0:
            return math.inf
        total += ((math.log(kr["key_rate_bps"]) - math.log(rate_t)) ** 2
                  + ((kr["e_mu"] - qber_t) / QBER_SCALE) ** 2)
    return total


def objective(links: list[dict], targets: list[tuple], ed: float,
              f: float) -> float:
    """Calibration objective: sum of (ln R - ln R_t)^2 + ((E - E_t)/0.005)^2
    over the (distance, rate, qber) targets; inf where a rate is 0."""
    chans = [channel(p, t[0]) for p, t in zip(links, targets)]
    return _objective(links, chans, targets, ed, f)


def grid_minimum(links: list[dict], targets: list[tuple]) -> float:
    """Smallest objective over the 51 x 51 (ed, f) grid."""
    chans = [channel(p, t[0]) for p, t in zip(links, targets)]
    return min(_objective(links, chans, targets, ed, f)
               for ed in ED_GRID for f in F_GRID)
