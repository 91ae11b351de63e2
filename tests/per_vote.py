"""Per-vote residuals and Jacobian of the factorized model: the reference for the fits' tests.

The fits reduce votes to cell statistics and sum the normal equations from each
cell's three partials; these functions evaluate the residual and its partials
once per vote, in dataset order, from justnow.model's kernel.
"""

import math

import numpy as np

from justnow.data import Dataset
from justnow.model import FactorizedModel, _gaussian, _kernel_terms, _lookup, _precedence

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@np.errstate(all="ignore")
def _jacobian(t, ev_idx, ad_idx, sigma_e, mu_a, sigma_a) -> np.ndarray:
    """Partials of the composite value w.r.t. (log sigma_e, mu_a, log sigma_a), one row each.

    Row i is observation i.  Columns are the events in index order, then each
    adverbial's (mu_a, log sigma_a).  Each row has three nonzeros.
    With x = Phi(u), u = t/sigma_e and z = (x - mu_a)/sigma_a:
        d/d log sigma_e = z * k * u * phi(u) / sigma_a
        d/d mu_a        = z * k / sigma_a
        d/d log sigma_a = z^2 * k
    """
    se, sa = sigma_e[ev_idx], sigma_a[ad_idx]
    u = t / se
    z, k = _kernel_terms(_precedence(t, se), mu_a[ad_idx], sa)
    jac = np.zeros((t.size, sigma_e.size + 2 * sigma_a.size))
    rows = np.arange(t.size)
    jac[rows, ev_idx] = z * k * u * (_INV_SQRT_2PI * _gaussian(u)) / sa
    jac[rows, sigma_e.size + 2 * ad_idx] = z * k / sa
    jac[rows, sigma_e.size + 2 * ad_idx + 1] = z * z * k
    return jac


def residuals_factorized(model: FactorizedModel, data: Dataset) -> np.ndarray:
    """Per-record residuals, prediction minus rating, in dataset order."""
    event_ids, adverbial_ids = data.event_ids[data.event], data.adverbial_ids[data.adverbial]
    return model.predict(event_ids, adverbial_ids, data.minutes) - data.rating


def jacobian_factorized(model: FactorizedModel, data: Dataset) -> np.ndarray:
    """Residual Jacobian w.r.t. (log sigma_e, mu_a, log sigma_a), dataset order.

    Columns are the model's events in sorted id order, then for each
    adverbial in sorted id order its (mu_a, log sigma_a) pair.  Entries for
    parameters a record's pair does not involve are exactly zero.
    """
    event_ids, adverbial_ids = sorted(model.events), sorted(model.adverbials)
    # The model's index of each of the data's ids, then of each vote's.
    ev_idx = _lookup({e: i for i, e in enumerate(event_ids)}, data.event_ids, "event")
    ad_idx = _lookup({a: j for j, a in enumerate(adverbial_ids)}, data.adverbial_ids, "adverbial")
    ev_idx = np.array(ev_idx, dtype=int)[data.event]
    ad_idx = np.array(ad_idx, dtype=int)[data.adverbial]
    sigma_e = np.array([model.events[eid].sigma_e for eid in event_ids])
    return _jacobian(data.minutes, ev_idx, ad_idx, sigma_e, *model._kernel_params(adverbial_ids))
