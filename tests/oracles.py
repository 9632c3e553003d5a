"""Independent numerical oracles shared by the test modules."""

import numpy as np


def golden_section_shrink(w, y, znorm, iters=200):
    """Minimize f(t) = w*t + y/2*(t - znorm)^2 over t >= 0 by golden-section
    search. Objective comparisons use the exact factored difference
    f(a) - f(b) = (a - b) * (w + y/2 * (a + b - 2*znorm)) so the search is
    not limited by cancellation near the flat minimum."""
    lo, hi = 0.0, znorm + 2.0 * w / y + 1.0
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - phi * (hi - lo), lo + phi * (hi - lo)
    for _ in range(iters):
        f_a_minus_f_b = (a - b) * (w + 0.5 * y * (a + b - 2.0 * znorm))
        if f_a_minus_f_b < 0:
            hi = b
        else:
            lo = a
        a, b = hi - phi * (hi - lo), lo + phi * (hi - lo)
    return 0.5 * (lo + hi)


def closest_point_on_triangle(point, tri):
    """Distance from a point to one triangle by quadratic minimization:
    check the unconstrained optimum, the three clamped edges, and the three
    vertices, and take the best."""
    a, b, c = tri
    e0, e1 = b - a, c - a
    candidates = [a, b, c]
    g = np.array([[e0 @ e0, e0 @ e1], [e0 @ e1, e1 @ e1]])
    rhs = np.array([e0 @ (point - a), e1 @ (point - a)])
    st = np.linalg.solve(g, rhs)
    if st[0] >= 0 and st[1] >= 0 and st.sum() <= 1:
        candidates.append(a + st[0] * e0 + st[1] * e1)
    for p0, d in ((a, e0), (a, e1), (b, c - b)):
        t = np.clip(d @ (point - p0) / (d @ d), 0.0, 1.0)
        candidates.append(p0 + t * d)
    return min(np.linalg.norm(point - q) for q in candidates)


def stencil_gather(idx, coef, x):
    """A padded gather table applied slot by slot: out[i] = sum over k of
    coef[i, k] * x[idx[i, k]], each row in slot order."""
    out = np.zeros((len(idx),) + x.shape[1:])
    for i in range(len(idx)):
        for k in range(idx.shape[1]):
            out[i] += coef[i, k] * x[idx[i, k]]
    return out
