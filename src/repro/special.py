"""The two special functions the simulation evaluates, ported from Cephes.

OF's lateness gate needs the standard-normal quantile (:func:`ndtri`)
and the link model's PRR curve needs the complementary error function
(:func:`erfc`). ``scipy.special`` compiles both from Cephes; importing
it costs a CLI invocation more than a small grid takes to run, so these
are line-for-line ports of the same routines: the same rational
approximations, the same branch points and the same operation order.
Every result equals ``scipy.special.ndtri`` / ``scipy.special.erfc`` bit
for bit (``tests/test_special.py``), so PRR matrices, topology
fingerprints, OF's gate and every store key are unchanged.

Stand-ins are refused because they are not bit-identical:

* ``math.erfc`` and ``statistics.NormalDist().inv_cdf`` implement
  different approximations;
* NumPy's ``exp`` ufunc is a SIMD implementation that differs from the
  C library's ``exp`` (what Cephes calls) in the last bit on a few
  percent of arguments. :func:`erfc` therefore calls ``math.exp`` per
  element, and only on the entries whose branch needs it.

Scalar Horner steps (:func:`_polevl`, :func:`_p1evl`) work unchanged on
NumPy arrays: each step is one correctly rounded multiply and one add,
as in the compiled loop.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtri", "erfc"]


def _polevl(x, coef):
    """``coef[0] * x**N + ... + coef[N]`` by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """:func:`_polevl` with an implicit leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


# -- ndtri ----------------------------------------------------------------

_SQRT_2PI = 2.50662827463100050242e0
#: exp(-2): below it (and above 1 - exp(-2)) the tail expansions apply.
_EXP_M2 = 0.13533528323661269189

#: |y - 0.5| <= 3/8.
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
#: z = sqrt(-2 log y) in [2, 8): y between exp(-2) and exp(-32).
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
#: z in [8, 64]: y below exp(-32).
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def ndtri(y0: float) -> float:
    """Standard-normal quantile: the ``x`` with ``Phi(x) = y0``.

    ``ndtri(0) = -inf``, ``ndtri(1) = inf``; outside ``[0, 1]`` and for
    NaN the result is NaN (scipy also flags a domain error there).

    >>> ndtri(0.8)
    0.8416212335729143
    >>> ndtri(0.5)
    0.0
    """
    y = float(y0)
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


# -- erfc -----------------------------------------------------------------

#: log(DBL_MAX): erfc(a) underflows once a * a exceeds it (|a| > 26.64).
_MAXLOG = 7.09782712893383996843e2

#: 1 <= |a| < 8.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
#: |a| >= 8.
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0,
    5.01905042251180477414e0, 6.16021097993053585195e0,
    7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0,
    1.20489539808096656605e1, 1.70814450747565897222e1,
    9.60896809063285878198e0, 3.36907645100081516050e0,
)
#: erf(a) for |a| < 1, as a * T(a^2) / U(a^2).
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)


def erfc(a) -> np.ndarray:
    """Complementary error function ``1 - erf(a)``, elementwise.

    Returns a float64 array of ``a``'s shape: ``1 - erf(a)`` for
    ``|a| < 1``, the Cephes rational tails times ``exp(-a * a)`` up to
    ``|a| = sqrt(MAXLOG)``, and the underflow values ``0`` / ``2``
    beyond; NaN stays NaN.

    >>> erfc([0.0, 1.0, -30.0]).tolist()
    [1.0, 0.15729920705028516, 2.0]
    """
    a = np.asarray(a, dtype=np.float64)
    shape = a.shape
    a = a.ravel()
    x = np.abs(a)
    out = np.where(a < 0.0, 2.0, 0.0)  # the underflow branch's values
    out[np.isnan(a)] = np.nan

    near = np.flatnonzero(x < 1.0)
    s = a.take(near)
    z = s * s
    out.put(near, 1.0 - s * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U))

    with np.errstate(over="ignore"):  # a * a = inf is past MAXLOG too
        far = np.flatnonzero((x >= 1.0) & (x * x <= _MAXLOG))  # NaN fails
    af, xf = a.take(far), x.take(far)
    z = -af * af
    # The C library's exp, per element: NumPy's ufunc is not bit-identical.
    e = np.fromiter(map(math.exp, z.tolist()), np.float64, z.size)
    mid = xf < 8.0
    p = np.where(mid, _polevl(xf, _ERFC_P), _polevl(xf, _ERFC_R))
    q = np.where(mid, _p1evl(xf, _ERFC_Q), _p1evl(xf, _ERFC_S))
    y = (e * p) / q
    out.put(far, np.where(af < 0.0, 2.0 - y, y))
    return out.reshape(shape)
