import dataclasses
import re
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qiul.core import (
    OpticalSetup,
    SourceParams,
    load_config,
    parse_length,
    regime_classify,
    singular_waist,
    validate_params,
)
from qiul.errors import (
    EnergyConservationViolated,
    NonPositiveParameter,
    SchemaError,
    ThinCrystalRegime,
    ValidationError,
)

from conftest import make_params

mp.mp.dps = 50


def oracle_singular_waist(L_mm: str) -> float:
    """Arbitrary-precision evaluation, independent of the implementation."""
    ld, lu = mp.mpf("730e-9"), mp.mpf("910e-9")
    L = mp.mpf(L_mm) * mp.mpf("1e-3")
    return float(mp.sqrt(ld * lu * L / (2 * mp.pi * (ld + lu))))


class TestValidation:
    def test_reference_tuple_valid(self):
        p = make_params(2e-3, 142e-6)
        assert validate_params(p) is p

    def test_idempotent(self):
        p = make_params()
        assert validate_params(validate_params(p)) is p

    def test_thin_crystal_rejected(self):
        with pytest.raises(ThinCrystalRegime):
            validate_params(make_params(crystal_length=100e-9))

    def test_thin_crystal_threshold_is_100_wavelength_sums(self):
        lsum = 730e-9 + 910e-9
        validate_params(make_params(crystal_length=100.1 * lsum))
        with pytest.raises(ThinCrystalRegime):
            validate_params(make_params(crystal_length=99.9 * lsum))

    def test_energy_conservation_violated(self):
        with pytest.raises(EnergyConservationViolated):
            p = SourceParams(405e-9, 500e-9, 910e-9, 2e-3, 142e-6)
            validate_params(p)

    @pytest.mark.parametrize("field", ["lambda_p", "lambda_d", "lambda_u", "crystal_length", "pump_waist"])
    @pytest.mark.parametrize("bad", [0.0, -1e-6, float("nan"), float("inf")])
    def test_nonpositive_rejected(self, field, bad):
        values = dict(lambda_p=405e-9, lambda_d=730e-9, lambda_u=910e-9,
                      crystal_length=2e-3, pump_waist=142e-6)
        values[field] = bad
        with pytest.raises(NonPositiveParameter):
            validate_params(SourceParams(**values))


REFERENCE = dict(lambda_p=405e-9, lambda_d=730e-9, lambda_u=910e-9,
                 crystal_length=2e-3, pump_waist=142e-6)
BAD_LENGTHS = [0.0, -1e-6, float("nan"), float("inf")]
INVALID_CHANGES = [
    *({field: bad} for field in REFERENCE for bad in BAD_LENGTHS),
    {"lambda_d": 500e-9},
    {"crystal_length": 100e-9},
]
INVALID_IDS = [",".join(f"{k}={v:g}" for k, v in change.items()) for change in INVALID_CHANGES]


def assert_rejected_like_validate_params(build, change):
    """build() raises the error type and message that validate_params
    raises for the reference tuple with `change` applied."""
    with pytest.raises(ValidationError) as expected:
        validate_params(SimpleNamespace(**{**REFERENCE, **change}))
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        build()


class TestConstructionValidates:
    @pytest.mark.parametrize("change", INVALID_CHANGES, ids=INVALID_IDS)
    def test_constructor(self, change):
        assert_rejected_like_validate_params(lambda: SourceParams(**{**REFERENCE, **change}), change)

    @pytest.mark.parametrize("change", INVALID_CHANGES, ids=INVALID_IDS)
    def test_dataclasses_replace(self, change):
        p = SourceParams(**REFERENCE)
        assert_rejected_like_validate_params(lambda: dataclasses.replace(p, **change), change)

    @pytest.mark.parametrize("bad", BAD_LENGTHS)
    def test_with_waist(self, bad):
        p = SourceParams(**REFERENCE)
        assert_rejected_like_validate_params(lambda: p.with_waist(bad), {"pump_waist": bad})

    @pytest.mark.parametrize("bad", [*BAD_LENGTHS, 100e-9])
    def test_with_crystal_length(self, bad):
        p = SourceParams(**REFERENCE)
        assert_rejected_like_validate_params(
            lambda: p.with_crystal_length(bad), {"crystal_length": bad}
        )


class TestSingularWaist:
    @pytest.mark.parametrize("L_mm, approx_um", [("2", 11.4), ("5", 18.0), ("10", 25.4)])
    def test_against_arbitrary_precision_oracle(self, L_mm, approx_um):
        expected = oracle_singular_waist(L_mm)
        got = singular_waist(make_params(crystal_length=float(L_mm) * 1e-3))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got * 1e6 == pytest.approx(approx_um, abs=0.05)

    def test_sqrt_scaling_in_length(self):
        w1 = singular_waist(make_params(crystal_length=2e-3))
        w4 = singular_waist(make_params(crystal_length=8e-3))
        assert w4 == pytest.approx(2.0 * w1, rel=1e-12)

    def test_monotone_in_length(self):
        lengths = [1e-3, 2e-3, 4e-3, 8e-3, 16e-3]
        values = [singular_waist(make_params(crystal_length=L)) for L in lengths]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestRegimeClassify:
    def test_margins_match_arithmetic_oracle(self):
        ld, lu = mp.mpf("730e-9"), mp.mpf("910e-9")
        w, L = mp.mpf("308e-6"), mp.mpf("2e-3")
        expected_u = float(w**2 * (ld + lu) / (lu**2 * L))
        report = regime_classify(make_params(2e-3, 308e-6))
        assert report.margin_u == pytest.approx(expected_u, rel=1e-12)
        assert report.margin_u == pytest.approx(93.94, abs=0.05)
        assert report.large_waist_u and report.large_waist_d

    def test_small_waist_long_crystal_fails_u_condition(self):
        report = regime_classify(make_params(10e-3, 50e-6))
        assert report.margin_u == pytest.approx(0.4951, abs=0.001)
        assert not report.large_waist_u

    def test_separability_margin_is_one_at_singular_waist(self):
        p = make_params()
        w_sing = singular_waist(p)
        report = regime_classify(p.with_waist(w_sing))
        assert report.separability_margin == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_booleans_monotone_in_waist(self, factor):
        base = make_params(5e-3, 60e-6)
        small = regime_classify(base)
        large = regime_classify(base.with_waist(60e-6 * factor))
        if small.large_waist_u:
            assert large.large_waist_u
        if small.large_waist_d:
            assert large.large_waist_d


class TestOpticalSetup:
    def test_reference_setup(self):
        s = OpticalSetup()
        assert s.m_d == pytest.approx(2.67)
        assert s.m_u == 1.0

    def test_factorization_enforced(self):
        with pytest.raises(SchemaError):
            OpticalSetup(m_d=3.0, m_d_i=1.0, m_d_c=2.67)

    def test_positive_magnifications(self):
        with pytest.raises(NonPositiveParameter):
            OpticalSetup(m_d=-1.0, m_d_i=-1.0, m_d_c=1.0)

    @pytest.mark.parametrize("name", ["m_d", "m_u", "m_d_i", "m_u_i", "m_d_c"])
    def test_finite_magnifications(self, name):
        with pytest.raises(NonPositiveParameter):
            dataclasses.replace(OpticalSetup(), **{name: float("inf")})


class TestConfigFile:
    def test_parse_length_units(self):
        assert parse_length("405nm") == pytest.approx(405e-9)
        assert parse_length("142um") == pytest.approx(142e-6)
        assert parse_length("2mm") == pytest.approx(2e-3)
        assert parse_length("0.5m") == pytest.approx(0.5)
        assert parse_length("1.5e-3") == pytest.approx(1.5e-3)

    def test_parse_length_bad_unit(self):
        with pytest.raises(SchemaError):
            parse_length("3parsec")

    def test_load_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# measurement run\n"
            "pump_waist = 214um\n"
            "crystal_length = 5mm\n"
            "m_d_c = 2.67  # camera leg\n",
            encoding="utf-8",
        )
        params, setup = load_config(cfg)
        assert params.pump_waist == pytest.approx(214e-6)
        assert params.crystal_length == pytest.approx(5e-3)
        assert params.lambda_p == pytest.approx(405e-9)
        assert setup.m_d == pytest.approx(2.67)

    def test_load_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("flux_capacitance = 3\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_config(cfg)

    def test_load_config_invalid_params(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("crystal_length = 10nm\n", encoding="utf-8")
        with pytest.raises(ThinCrystalRegime):
            load_config(cfg)

    @pytest.mark.parametrize("line", ["m_d_c = 1.2.3", "m_u = --1", "pump_waist = 1.2.3um"])
    def test_load_config_malformed_number(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_config(cfg)
