"""The truncated drift as the paper states it, one measure at a time.

The simulator computes the truncated targets in sde.consensus_fields, for
every replica of a batch at once. This module states the same formula
directly on an empirical measure, so tests can hold the two against each
other: both attraction targets, the Gibbs consensus and the mean, are scaled
by the cutoff eta_R evaluated at the measure's first moment.
"""

from infocbo.gibbs import cutoff_eta, drift, weighted_consensus
from infocbo.measures import mean_point, moment_p


def cutoff_phi_measure(radius, measure):
    """Cutoff evaluated at the first moment of the measure."""
    return cutoff_eta(radius, moment_p(measure, 1))


def truncated_drift(radius, params, measure, x, lam):
    """Drift with both attraction targets scaled by the measure cutoff."""
    phi = cutoff_phi_measure(radius, measure)
    f_val = phi * weighted_consensus(params, measure)
    e_val = phi * mean_point(measure)
    return drift(x, lam, f_val, e_val)
