"""A Poisson bracket of two functions of one state, and the closed forms
of the bracket table, as test oracles.

`verify`'s reports take every bracket from one stacked gradient; the tests
compare them with `poisson_bracket`, which differentiates two arbitrary
functions of a `PhasePoint` by the same fourth-order stencil.
`bracket_table` takes its closed forms on its rows alone; the tests
compare them with `expected_values`, which builds them on the whole
matrix of the chart vector's pairs.
"""

import numpy as np

from mcgehee import chart, verify
from mcgehee.model import PhasePoint, angular_momentum


def poisson_bracket(f, g, x, h_fraction=verify.DEFAULT_STEP_FRACTION):
    """Finite-difference {f, g}(x) under verify's sign convention."""
    d = len(x.q)
    z = np.concatenate([x.q, x.p])
    h = h_fraction * verify._coordinate_scales(z, d)

    def fg(rows):
        points = (PhasePoint(zz[:d], zz[d:]) for zz in rows)
        return np.array([(f(xx), g(xx)) for xx in points])

    return float(verify._brackets(verify._gradient(fg, z, h)[0], d)[0, 1])


def expected_values(params, x, report):
    """`bracket_table`'s expected values by the full-matrix construction:
    every closed form in the index layout of the chart vector
    (T, H, A, B, L), read at the rows that `report.names` names, and each
    family's sign measured on the rows of that family from
    `report.computed`.  Returns the values and the three signs."""
    d = params.d
    pi, pj = np.triu_indices(d, 1)
    A_names = [f"A_{i}" for i in range(d)]
    B_names = [f"B_{i}" for i in range(d)]
    L_names = [f"L_{i}{j}" for i, j in zip(pi, pj)]
    index = {f: k for k, f in enumerate(["T", "H", *A_names, *B_names, *L_names])}
    A = chart.chart_forward(params, x).A
    L = angular_momentum(x).matrix
    delta = np.eye(d)
    i, j, k, l = pi[:, None], pj[:, None], pi, pj
    E = np.zeros((len(index), len(index)))
    E[1, 0] = 1.0  # {H, T}
    E[2 : 2 + d, 2 + d : 2 + 2 * d] = delta - np.outer(A, A)
    E[2 + d + pi, 2 + d + pj] = L[pi, pj]
    E[2 + 2 * d :, 2 + 2 * d :] = (
        delta[i, l] * L[j, k]
        - delta[i, k] * L[j, l]
        - delta[j, l] * L[i, k]
        + delta[j, k] * L[i, l]
    )
    a, b = np.array([(index[f], index[g]) for f, g in report.names]).T
    expected = E[a, b]
    family = np.array([{"AB": 1, "BB": 2, "LL": 3}.get(f[0] + g[0], 0) for f, g in report.names])
    signs = [verify._family_sign(report.computed[family == f], expected[family == f]) for f in (1, 2, 3)]
    expected *= np.array([1.0, *signs])[family]
    return expected, signs
