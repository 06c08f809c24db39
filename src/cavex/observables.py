"""Scalar figures of merit and Bloch-sphere reduction.

pi_e counts photons leaving through the collection mode; beta_c is the
branching probability that an exciton emits into that mode; eta_c is their
product, the photon-creation efficiency.
"""

from dataclasses import dataclass

import numpy as np

from .qcore import partial_trace_tls


@dataclass(frozen=True)
class FigureOfMerit:
    pi_e: float
    beta_c: float
    eta_c: float
    max_excited_pop: float


def purcell_rate(g, kappa, detuning):
    """Cavity-enhanced emission rate 4 g^2/kappa / (1 + (2 detuning/kappa)^2)."""
    return 4.0 * g**2 / kappa / (1.0 + (2.0 * detuning / kappa) ** 2)


def beta_collection(system):
    """Probability that an exciton emits into the collection mode.

    beta_c = F_p(dwc) / (F_p(dwc) + F_p(dwe) + 1); the Purcell factors of
    the two modes carry the same Lorentzian roll-off in their detuning from
    the emitter.  For gamma_bg = 0 the "+1" term drops and the expression
    reduces to the cavity-rate ratio R_c / (R_c + R_e).
    """
    r_c = purcell_rate(system.g, system.kappa, system.delta_omega_c)
    r_e = purcell_rate(system.g, system.kappa, system.delta_omega_e)
    return r_c / (r_c + r_e + system.gamma_bg)


def bloch_trajectory(traj, space):
    """Series of (s_x, s_y, s_z) from the reduced emitter state."""
    r = partial_trace_tls(traj.states, space)
    coh = r[:, 1, 0]
    return np.column_stack([2.0 * coh.real, 2.0 * coh.imag, (r[:, 1, 1] - r[:, 0, 0]).real])


def figure_of_merit(traj, system):
    """Bundle pi_e, beta_c, eta_c, and the peak excited population.

    pi_e is the trajectory's photon count through the collection mode: the
    flux kappa <a^dag a> integrated as part of the state and closed over
    the ring-down tail, so the output sampling does not enter it.
    """
    pi_e = traj.photons_out
    beta = beta_collection(system)
    return FigureOfMerit(
        pi_e=pi_e,
        beta_c=beta,
        eta_c=beta * pi_e,
        max_excited_pop=float(traj.excited_pop.max()),
    )
