"""Synthetic measured quadrature records for the g2 and CLI tests.

The simulator never samples a mode pair by pair: it maps an exact
Wishart draw through one linear map.  These two helpers draw a record
the direct way, unvalidated, so the tests can build thermal and vacuum
records to calibrate and load.
"""

import math


def sample_thermal_quadratures(n_mean, count, rng):
    """``(count, 2)`` quadrature pairs of a thermal mode of mean photon
    number ``n_mean``: zero-mean Gaussians of variance ``2 n_mean + 1``."""
    samples = rng.generator().standard_normal((int(count), 2))
    samples *= math.sqrt(2.0 * n_mean + 1.0)
    return samples


def heterodyne_measure(samples, det, rng):
    """Conjugate-homodyne outcomes of ``samples`` at receiver ``det``:
    ``sqrt(eta_d / 2) * in + sqrt(1 - eta_d / 2 + v_el) * z``, per quadrature."""
    outcome = rng.generator().standard_normal(samples.shape)
    outcome *= math.sqrt(1.0 - det.eta_d / 2.0 + det.v_el)
    outcome += samples * math.sqrt(det.eta_d / 2.0)
    return outcome
