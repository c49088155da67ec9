"""The profile reconstruction before its workspace and fused source pass.

``reconstruct_profile_reference`` is ``pde.reconstruct_profile`` as it stood
when every N_y x N_tau array was a fresh temporary: the feet are formed as
(E_k y + C_k - C_s)/E_s, h, h' and h'' come from one ``SourceFn.eval`` call
per order, and E_s multiplies h (1/E_s divides h'') before the tau weights
apply.  It serves as the test oracle of the workspace version, which must
agree to rounding.
"""

import numpy as np

from nltransport.pde import _exp_segment, _tau_panel_edges
from oracles import exp_cumulative
from nltransport.quadrature import unit_gauss_nodes


def reconstruct_profile_reference(source, xi0, t_nodes, R_nodes, yq, p,
                                  need_second=False, nodes_per_panel=12):
    """(xi, dxi[, d2xi]) at the final node, with dense temporaries throughout."""
    yq = np.asarray(yq, dtype=float)
    k = len(t_nodes) - 1
    if k == 0:
        out = [xi0(yq), xi0.d(yq)]
        if need_second:
            out.append(xi0.d2(yq))
        return tuple(out)
    C_nodes = exp_cumulative(t_nodes, R_nodes)
    t_k = t_nodes[-1]
    dt = t_nodes[1] - t_nodes[0]

    edges = _tau_panel_edges(t_k, float(np.min(yq)), dt, p)
    u, gw = unit_gauss_nodes(nodes_per_panel)
    widths = np.diff(edges)
    tau = (edges[:-1, None] + widths[:, None] * u).ravel()
    w_tau = (widths[:, None] * gw).ravel()

    s = t_k - tau
    j = np.clip(np.searchsorted(t_nodes, s, side="right") - 1, 0, k - 1)
    ds = s - t_nodes[j]
    rates = (R_nodes[j + 1] - R_nodes[j]) / (t_nodes[j + 1] - t_nodes[j])
    E_j = np.exp(R_nodes[j])
    E_s = np.exp(R_nodes[j] + rates * ds)
    C_s = C_nodes[j] + _exp_segment(E_j, rates, ds)
    E_k = np.exp(R_nodes[-1])
    C_k = C_nodes[-1]

    ys = (E_k * yq[:, None] + (C_k - C_s[None, :])) / E_s[None, :]
    y0 = E_k * yq + C_k
    h = source.eval(ys, 0)
    h1 = source.eval(ys, 1)
    xi0_val, xi0_d = xi0.pair_eval(y0)
    xi = (xi0_val + (h * E_s[None, :]) @ w_tau) / E_k
    dxi = xi0_d + h1 @ w_tau
    if not need_second:
        return xi, dxi
    h2 = source.eval(ys, 2)
    d2 = xi0.d2(y0) * E_k + (h2 / E_s[None, :]) @ w_tau * E_k
    return xi, dxi, d2
