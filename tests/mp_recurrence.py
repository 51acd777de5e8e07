"""The three-term recurrence in mpmath: the oracle for the float routes.

b_m f_{m+1} = lambda' f_m - b_{m-1} f_{m-1}, evaluated at the working
precision from the same float b_m the library uses (each float is exact
in mpmath), so a difference is the library's rounding alone.
"""

import mpmath


def mp_recurrence(b, lam, f0, f1, dps: int) -> list:
    """f_0..f_L (L = len(b)) from f_0 and f_1, as mpmath numbers at dps digits."""
    with mpmath.workdps(dps):
        lam = mpmath.mpmathify(lam)
        out = [mpmath.mpmathify(f0), mpmath.mpmathify(f1)]
        bs = [mpmath.mpf(float(x)) for x in b]
        for m in range(1, len(bs)):
            out.append((lam * out[m] - bs[m - 1] * out[m - 1]) / bs[m])
    return out


def mp_positive_recurrence(b, dps: int) -> list:
    """y_0..y_L (L = len(b)) of b_m y_{m+1} = y_m + b_{m-1} y_{m-1},
    y_{-1} = 0, y_0 = 1: the recurrence above at lambda' = i in real form,
    as mpmath numbers at dps digits."""
    with mpmath.workdps(dps):
        bs = [mpmath.mpf(float(x)) for x in b]
        prev, cur, b_prev = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0)
        out = [cur]
        for b_m in bs:
            prev, cur, b_prev = cur, (cur + b_prev * prev) / b_m, b_m
            out.append(cur)
    return out
