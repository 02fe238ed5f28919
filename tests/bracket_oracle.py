"""A Poisson bracket of two functions of one state, as a test oracle.

`verify`'s reports take every bracket from one stacked gradient; the tests
compare them with `poisson_bracket`, which differentiates two arbitrary
functions of a `PhasePoint` by the same fourth-order stencil.
"""

import numpy as np

from mcgehee import verify
from mcgehee.model import PhasePoint


def poisson_bracket(f, g, x, h_fraction=verify.DEFAULT_STEP_FRACTION):
    """Finite-difference {f, g}(x) under verify's sign convention."""
    d = len(x.q)
    z = np.concatenate([x.q, x.p])
    h = h_fraction * verify._coordinate_scales(z, d)

    def fg(rows):
        points = (PhasePoint(zz[:d], zz[d:]) for zz in rows)
        return np.array([(f(xx), g(xx)) for xx in points])

    return float(verify._brackets(verify._gradient(fg, z, h)[0], d)[0, 1])
