import mpmath as mp
import numpy as np
import pytest

from qiul.core import OpticalSetup, SourceParams

LAMBDA_P = 405e-9
LAMBDA_D = 730e-9
LAMBDA_U = 910e-9

CRYSTAL_LENGTHS = (2e-3, 5e-3, 10e-3)
PUMP_WAISTS = (50e-6, 142e-6, 214e-6, 308e-6)
PARAM_GRID = [(L, w) for L in CRYSTAL_LENGTHS for w in PUMP_WAISTS]


def make_params(crystal_length=2e-3, pump_waist=142e-6) -> SourceParams:
    return SourceParams(
        lambda_p=LAMBDA_P,
        lambda_d=LAMBDA_D,
        lambda_u=LAMBDA_U,
        crystal_length=crystal_length,
        pump_waist=pump_waist,
    )


@pytest.fixture
def params() -> SourceParams:
    return make_params()


@pytest.fixture
def setup() -> OpticalSetup:
    return OpticalSetup()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240915)


def oracle_w(r) -> float:
    """W(r) at 50 digits (mpmath): the 1/e half-width of
    F(s; r) = e^{-s^2} [-2s erfc(rs) - (2/sqrt(pi)) r e^{-r^2 s^2}], the
    peak where F' vanishes, then its two 1/e crossings, each bracketed on
    a 401-point grid over a window set by r: +-4 around the lobe near
    s = -1/sqrt(2) for r >= 0, +-8/sqrt(1 + r^2) around the spike of
    width ~1/|r| at s = 0 for r < 0."""
    with mp.workdps(50):
        r = mp.mpf(r)

        def f(s):
            return mp.exp(-s * s) * (-2 * s * mp.erfc(r * s)
                                     - 2 * r / mp.sqrt(mp.pi) * mp.exp(-(r * s) ** 2))

        span = 8 / mp.sqrt(1 + r * r) if r < 0 else mp.mpf(4)
        xs = [span * (t - 200) / 200 for t in range(401)]
        fs = [f(x) for x in xs]
        i = max(range(len(fs)), key=fs.__getitem__)
        x_peak = mp.findroot(lambda x: mp.diff(f, x), (xs[i - 1], xs[i + 1]), solver="anderson")
        level = f(x_peak) / mp.e
        j = max(t for t in range(i + 1) if fs[t] < level)
        m = min(t for t in range(i, len(fs)) if fs[t] < level)
        left = mp.findroot(lambda x: f(x) - level, (xs[j], xs[j + 1]), solver="anderson")
        right = mp.findroot(lambda x: f(x) - level, (xs[m - 1], xs[m]), solver="anderson")
        return float((right - left) / 2)
