"""Straight-line oracles that several test modules compare the package against."""

import numpy as np


def conv_loops(x, kernel, stride, padding):
    """Explicit six-nested-loop convolution oracle."""
    b, c, hh, ww = x.shape
    n, _, kh, kw = kernel.shape
    oh = (hh + 2 * padding - kh) // stride + 1
    ow = (ww + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((b, n, oh, ow))
    for bi in range(b):
        for ni in range(n):
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (kernel[ni, ci, ki, kj]
                                        * xp[bi, ci, oi * stride + ki,
                                             oj * stride + kj])
                    out[bi, ni, oi, oj] = acc
    return out
