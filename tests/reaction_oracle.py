"""The per-subdomain residual loop, kept as a test-only oracle.

This is how the package formed the coupling residual before it computed
every patch reaction in one batched product: one full-Gamma vector per
subdomain, ``A_s (S_s A_s^T u - b_s)``, added in subdomain order and
negated.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np


def reaction(scenario, sid, u):
    """One subdomain's reaction scattered on Gamma."""
    sub = scenario.subdomains[sid]
    out = np.zeros(scenario.gamma_dim)
    out[sub.amap] = sub.schur @ u[sub.amap] - sub.rhs
    return out


def loop_residual(scenario, u):
    """``-sum_s reaction(s)`` over the subdomains in scenario order."""
    acc = np.zeros(scenario.gamma_dim)
    for sid in scenario.subdomain_ids:
        acc += reaction(scenario, sid, u)
    return -acc
