"""Independent reference for the photon yield pi_e of one cell.

Shares no code with cavex.  It reads only the physical parameters of a
RunConfig (plain attributes) and recomputes pi_e by another route:

- the cavity-filtered drive is not a gridded convolution but the filter's
  own equation of motion, dE/dt = (-kappa/2 + i dwe) E + kappa/2 E_in(t),
  integrated together with the density matrix, so the drive carries no
  grid or interpolation error;
- the coherent part and the Lindblad terms form a column-stacked 64x64
  (for n_max = 3) Liouvillian superoperator; the non-secular Bloch-Redfield
  part is rebuilt at each call from the super-Ohmic spectral density in
  the instantaneous eigenbasis;
- pi_e = kappa * integral <a^dag a> dt is a state component of the ODE,
  so no output sampling or trapezoid enters;
- the integrator is DOP853 at rtol 1e-10 (cavex uses RK45), in ps units.

Run ``python3 bench/reference.py`` to print the reference for a few
shipped recipe cells next to cavex's value.
"""

import numpy as np
from scipy.integrate import solve_ivp

GHZ = 2.0 * np.pi * 1e-3  # rad/ps per GHz of ordinary frequency
HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J/K
EV = 1.602176634e-19  # J
RTOL = 1e-10  # DOP853 tolerances of the reference integration
ATOL = 1e-13


def _spre(x):
    return np.kron(np.eye(len(x)), x)


def _spost(x):
    return np.kron(x.T, np.eye(len(x)))


def _dissipator(c):
    cdc = c.conj().T @ c
    return np.kron(c.conj(), c) - 0.5 * (_spre(cdc) + _spost(cdc))


def phonon_rate(cfg, omega):
    """One-sided Bloch-Redfield rate (1/ps) at transition frequency omega (rad/ps).

    gamma = 2 pi J(|w|) (nbar + 1) for emission (w > 0), 2 pi J(|w|) nbar
    for absorption (w < 0), with the deformation-potential spectral density
    J(w) = w^3 / (4 pi^2 rho hbar c^5) [D_e e^{-w^2 r_e^2/4c^2} - D_h e^{-w^2 r_h^2/4c^2}]^2
    in SI units, scaled by the configured calibration factor.
    """
    w = np.abs(np.asarray(omega, dtype=float)) * 1e12  # rad/s
    c = cfg.c_s_m_s
    form = cfg.d_e_eV * EV * np.exp(-((w * cfg.r_e_nm * 1e-9 / (2.0 * c)) ** 2)) - (
        cfg.d_h_eV * EV * np.exp(-((w * cfg.r_h_nm * 1e-9 / (2.0 * c)) ** 2))
    )
    j = w**3 / (4.0 * np.pi**2 * cfg.density_kg_m3 * HBAR * c**5) * form**2
    live = w > 1e-6  # J ~ w^3 beats nbar ~ 1/w: the rate vanishes at w = 0
    nbar = np.zeros_like(w)
    if cfg.temperature_K > 0:
        nbar[live] = 1.0 / np.expm1(HBAR * w[live] / (KB * cfg.temperature_K))
    occ = np.where(np.asarray(omega) > 0, nbar + 1.0, nbar)
    return np.where(live, 2.0 * np.pi * j * occ * cfg.coupling_scale * 1e-12, 0.0)


def pi_e(cfg):
    """Reference photon yield of one cell described by a cavex RunConfig.

    Returns (exact, sampled): the integrated collection flux, and the
    trapezoid of the same flux over the output grid cavex samples
    (n_traj_points from the start of the field window to 16 emission
    lifetimes past its end).  sampled - exact is the output-sampling term of
    cavex's error budget for this cell.
    """
    if cfg.pulse_shape != "Sech" or cfg.secular:
        raise ValueError("the reference covers sech pulses and the non-secular dissipator")
    tp = cfg.t_p_ps
    if cfg.width_convention == "fwhm":
        tp /= 2.0 * np.arccosh(2.0)
    amp = cfg.amplitude_pi * np.pi
    dwl, dwe, dwc = (GHZ * x for x in (cfg.delta_omega_L_GHz, cfg.delta_omega_e_GHz, cfg.delta_omega_c_GHz))
    g, kappa, gbg = GHZ * cfg.g_GHz, GHZ * cfg.kappa_GHz, GHZ * cfg.gamma_bg_GHz

    nf = cfg.n_max + 1
    a = np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1.0, nf)), 1)).astype(complex)
    sm = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(nf)).astype(complex)
    sp = sm.conj().T
    n_op = a.conj().T @ a
    pop = sp @ sm
    h0 = dwc * n_op + g * (a.conj().T @ sm + a @ sp)
    l0 = -1j * (_spre(h0) - _spost(h0)) + kappa * _dissipator(a) + gbg * _dissipator(sm)
    l_plus = -0.5j * (_spre(sp) - _spost(sp))  # coefficient Omega
    l_minus = -0.5j * (_spre(sm) - _spost(sm))  # coefficient conj(Omega)
    dim = len(h0)
    d2 = dim * dim
    n_row = n_op.T.ravel(order="F")  # Tr(n rho) = n_row . vec(rho)
    phonons = cfg.phonon_enabled and cfg.coupling_scale > 0

    def rhs(t, y):
        rho, e = y[:d2], y[d2]
        x = np.exp(-abs(t) / tp)
        e_in = amp / (np.pi * tp) * 2.0 * x / (1.0 + x * x) * np.exp(1j * dwl * t)
        omega = np.conj(e)
        out = np.empty_like(y)
        out[:d2] = (l0 + omega * l_plus + e * l_minus) @ rho
        if phonons:
            # non-secular Redfield in the instantaneous eigenbasis:
            # D rho = L rho A + A rho L^dag - A L rho - rho L^dag A with
            # L = sum_mn A_mn gamma(E_n - E_m) / 2 |m><n|
            h = h0 + 0.5 * (omega * sp + e * sm)
            ev, vec = np.linalg.eigh(h)
            a_eig = vec.conj().T @ pop @ vec
            gam = phonon_rate(cfg, ev[None, :] - ev[:, None])
            lam = vec @ (a_eig * 0.5 * gam) @ vec.conj().T
            r = rho.reshape(dim, dim, order="F")
            lr = lam @ r @ pop
            out[:d2] += (lr + lr.conj().T - pop @ lam @ r - r @ lam.conj().T @ pop).ravel(order="F")
        out[d2] = (-0.5 * kappa + 1j * dwe) * e + 0.5 * kappa * e_in
        out[d2 + 1] = kappa * (n_row @ rho).real
        return out

    y = np.zeros(d2 + 2, dtype=complex)
    y[0] = 1.0  # |g,0><g,0|
    lorentz = 1.0 / (1.0 + (2.0 * dwc / kappa) ** 2)
    decay = 4.0 * g**2 / kappa * lorentz + gbg
    field_end = 16.0 * tp + 30.0 / kappa
    samples = np.linspace(-16.0 * tp - 6.0 / kappa, field_end + 16.0 / decay, cfg.n_traj_points)
    flux = np.empty_like(samples)
    t_a = -20.0 * tp - 6.0 / kappa
    t_b = 20.0 * tp + 30.0 / kappa
    t_c = t_b + 30.0 / decay
    # the drive window with a step cap so no step leaps over the pulse,
    # then the ring-down with free steps
    for (lo, hi), cap in (((t_a, t_b), tp), ((t_b, t_c), np.inf)):
        sol = solve_ivp(
            rhs, (lo, hi), y, method="DOP853", rtol=RTOL, atol=ATOL, max_step=cap, dense_output=True
        )
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        inside = (samples >= lo) & (samples <= hi)
        flux[inside] = kappa * (n_row @ sol.sol(samples[inside])[:d2]).real
        y = sol.y[:, -1]
    return float(y[d2 + 1].real), float(np.trapezoid(flux, samples))


if __name__ == "__main__":
    import pathlib
    import sys
    import time

    root = pathlib.Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    from cavex import apply_override, load_config, run_cell

    for recipe, overrides in (
        ("fig2c.ini", {"pulse.amplitude_pi": 10.0}),
        ("fig3a.ini", {"pulse.delta_omega_L_GHz": 60.0, "pulse.amplitude_pi": 6.0}),
    ):
        cfg = load_config(root / "configs" / recipe)
        for path, value in overrides.items():
            cfg = apply_override(cfg, path, value)
        t0 = time.perf_counter()
        exact, sampled = pi_e(cfg)
        t1 = time.perf_counter()
        got = run_cell(cfg)[0].pi_e
        print(
            f"{recipe} {overrides}: reference {exact:.9f} ({t1 - t0:.2f} s), "
            f"sampling term {sampled - exact:+.2e}, cavex {got:.9f}, diff {got - exact:+.2e}"
        )
