import math
import operator
import re

import pytest
from hypothesis import given, strategies as st

from qkdcoex.errors import ConfigError, DomainError
from qkdcoex.link import (Band, ComponentSpec, FiberKind, FiberSpec,
                          IsolationTable, LinkPlan, Mode, MultiplexScheme,
                          SchemeName, Side, classical_min_launch_power_dbm,
                          modal_isolation_at, total_loss_db, transmittance)
from qkdcoex.presets import FMF_MODAL_ISOLATION, get_preset, preset_names


def smf_plan(length_km, with_dwdm=True):
    comps = ()
    if with_dwdm:
        mux = ComponentSpec("dwdm-mux", {Mode.FUNDAMENTAL: 0.49}, Side.TRANSMITTER)
        demux = ComponentSpec("dwdm-demux", {Mode.FUNDAMENTAL: 0.36}, Side.RECEIVER)
        comps = (mux, demux)
    return LinkPlan(
        fiber=FiberSpec.smf(),
        length_km=length_km,
        scheme=MultiplexScheme.named("smf"),
        quantum_path_components=comps,
        classical_path_components=comps,
    )


def fmf_plan(scheme, length_km):
    mux = ComponentSpec("mode-mux", {Mode.LP01: 2.60, Mode.LP02: 3.70},
                        Side.TRANSMITTER)
    demux = ComponentSpec("mode-demux", {Mode.LP01: 2.30, Mode.LP02: 3.20},
                          Side.RECEIVER)
    return LinkPlan(
        fiber=FiberSpec.fmf(),
        length_km=length_km,
        scheme=MultiplexScheme.named(scheme),
        quantum_path_components=(mux, demux),
        classical_path_components=(mux, demux),
    )


class TestTotalLoss:
    def test_smf_quantum_63km(self):
        assert total_loss_db(smf_plan(63.0), Band.QUANTUM) == pytest.approx(
            12.82, abs=1e-12)

    def test_lp02in_quantum_86km(self):
        # quantum rides LP01: 0.226 * 86 + 2.60 + 2.30
        plan = fmf_plan("lp02in", 86.0)
        assert total_loss_db(plan, Band.QUANTUM) == pytest.approx(
            24.336, abs=1e-12)

    def test_zero_length_no_components(self):
        assert total_loss_db(smf_plan(0.0, with_dwdm=False), Band.QUANTUM) == 0.0

    def test_additivity_when_components_counted_once(self):
        plan_a = smf_plan(28.0, with_dwdm=False)
        plan_b = smf_plan(35.0)
        plan_ab = smf_plan(63.0)
        for channel in Band:
            assert total_loss_db(plan_ab, channel) == pytest.approx(
                total_loss_db(plan_a, channel) + total_loss_db(plan_b, channel),
                rel=1e-14)

    def test_scheme_symmetry(self):
        # swapping the mode assignment turns the lp01in quantum loss into
        # the lp02in classical loss at equal length
        length = 40.0
        q_loss = total_loss_db(fmf_plan("lp01in", length), Band.QUANTUM)
        c_loss = total_loss_db(fmf_plan("lp02in", length), Band.CLASSICAL)
        assert q_loss == pytest.approx(c_loss, rel=1e-14)

    def test_missing_component_mode_entry(self):
        bad = ComponentSpec("half-mux", {Mode.LP01: 2.60}, Side.TRANSMITTER)
        with pytest.raises(ConfigError, match="lp02"):
            LinkPlan(
                fiber=FiberSpec.fmf(),
                length_km=1.0,
                scheme=MultiplexScheme.named("lp01in"),
                quantum_path_components=(bad,),
            )


class TestTransmittance:
    def test_identity(self):
        assert transmittance(0.0) == 1.0

    def test_20db(self):
        assert transmittance(20.0) == pytest.approx(0.01, rel=1e-14)

    def test_derived_example(self):
        assert transmittance(12.82) == pytest.approx(0.05223961889991197,
                                                     rel=1e-14)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            transmittance(-0.1)

    @given(a=st.floats(0.0, 100.0), b=st.floats(0.0, 100.0))
    def test_product_rule(self, a, b):
        assert transmittance(a + b) == pytest.approx(
            transmittance(a) * transmittance(b), rel=1e-12)

    @given(a=st.floats(0.0, 200.0), delta=st.floats(1e-6, 50.0))
    def test_strictly_decreasing(self, a, delta):
        assert transmittance(a + delta) < transmittance(a)


class TestModalIsolation:
    TABLE_ROWS = [
        (SchemeName.LP01_IN, 0.0, 23.58), (SchemeName.LP01_IN, 25.0, 21.73),
        (SchemeName.LP01_IN, 50.0, 19.96), (SchemeName.LP01_IN, 75.0, 17.17),
        (SchemeName.LP01_IN, 100.0, 15.75),
        (SchemeName.LP02_IN, 0.0, 23.20), (SchemeName.LP02_IN, 25.0, 19.25),
        (SchemeName.LP02_IN, 50.0, 14.75), (SchemeName.LP02_IN, 75.0, 12.59),
        (SchemeName.LP02_IN, 100.0, 10.35),
    ]

    @pytest.mark.parametrize("direction,distance,expected", TABLE_ROWS)
    def test_exact_at_tabulated_points(self, direction, distance, expected):
        assert modal_isolation_at(FMF_MODAL_ISOLATION, direction,
                                  distance) == expected

    def test_interpolated_point(self):
        assert modal_isolation_at(FMF_MODAL_ISOLATION, SchemeName.LP01_IN,
                                  37.5) == pytest.approx(20.845, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            modal_isolation_at(FMF_MODAL_ISOLATION, SchemeName.LP01_IN, 100.01)
        with pytest.raises(DomainError):
            modal_isolation_at(FMF_MODAL_ISOLATION, SchemeName.LP02_IN, -1.0)

    def test_smf_direction_rejected(self):
        with pytest.raises(DomainError):
            modal_isolation_at(FMF_MODAL_ISOLATION, SchemeName.SMF, 10.0)

    def test_validation(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            IsolationTable(lp01_in=((0.0, 20.0), (0.0, 19.0)),
                           lp02_in=((0.0, 20.0),))
        with pytest.raises(ConfigError, match="non-increasing"):
            IsolationTable(lp01_in=((0.0, 20.0), (25.0, 21.0)),
                           lp02_in=((0.0, 20.0),))
        with pytest.raises(ConfigError, match="> 0"):
            IsolationTable(lp01_in=((0.0, -3.0),), lp02_in=((0.0, 20.0),))


class TestMinLaunchPower:
    def test_stated_sum(self):
        pad = ComponentSpec("pad", {Mode.FUNDAMENTAL: 20.0}, Side.RECEIVER)
        plan = LinkPlan(fiber=FiberSpec.smf(), length_km=0.0,
                        scheme=MultiplexScheme.named("smf"),
                        classical_path_components=(pad,))
        assert classical_min_launch_power_dbm(plan, -33.0) == pytest.approx(-13.0)

    def test_zero_loss(self):
        plan = smf_plan(0.0, with_dwdm=False)
        assert classical_min_launch_power_dbm(plan, -33.0) == -33.0

    def test_lp01in_classical_50km(self):
        # classical path is LP01: 0.226 * 50 + 2.60 + 2.30 = 16.20 dB
        plan = fmf_plan("lp01in", 50.0)
        assert classical_min_launch_power_dbm(plan, -33.0) == pytest.approx(
            -16.80, abs=1e-12)


class TestValidation:
    def test_negative_attenuation(self):
        with pytest.raises(ConfigError, match="(0, 1)"):
            FiberSpec.smf(quantum_db_per_km=-0.1)

    def test_attenuation_above_one(self):
        with pytest.raises(ConfigError):
            FiberSpec.fmf(lp01_db_per_km=1.5)

    def test_missing_fiber_entry(self):
        with pytest.raises(ConfigError, match="missing entry"):
            FiberSpec(FiberKind.FMF, {(Mode.LP01, Band.QUANTUM): 0.2})

    def test_attenuation_of_a_mode_the_fiber_lacks(self):
        with pytest.raises(ConfigError, match=re.escape(
                "no attenuation entry for (lp01, quantum)")):
            FiberSpec.smf().attenuation(Mode.LP01, Band.QUANTUM)

    @pytest.mark.parametrize("direction", ["lp01in", "lp02in"])
    def test_isolation_table_without_rows(self, direction):
        rows = {"lp01_in": ((0.0, 20.0),), "lp02_in": ((0.0, 20.0),)}
        rows[direction.replace("in", "_in")] = []
        with pytest.raises(ConfigError,
                           match=f"isolation table {direction}: no rows"):
            IsolationTable(**rows)

    def test_negative_component_loss(self):
        with pytest.raises(ConfigError, match=">= 0"):
            ComponentSpec("bad", {Mode.LP01: -1.0}, Side.TRANSMITTER)

    def test_scheme_mode_invariant(self):
        with pytest.raises(ConfigError):
            MultiplexScheme(SchemeName.LP01_IN, quantum_mode=Mode.LP01,
                            classical_mode=Mode.LP02)

    # A name that is no scheme is a ConfigError listing the schemes, by
    # name as by record field.
    @pytest.mark.parametrize("build", [
        lambda: MultiplexScheme.named("bogus"),
        lambda: MultiplexScheme.named(5),
        lambda: MultiplexScheme("smf", Mode.FUNDAMENTAL, Mode.FUNDAMENTAL),
        lambda: MultiplexScheme(None, Mode.LP01, Mode.LP02),
    ], ids=["named-str", "named-int", "str-field", "none-field"])
    def test_unknown_scheme_name(self, build):
        with pytest.raises(ConfigError, match=r"^scheme must be one of smf, "
                                              r"lp01in, lp02in, got "):
            build()

    def test_smf_scheme_needs_smf_fiber(self):
        with pytest.raises(ConfigError):
            LinkPlan(fiber=FiberSpec.fmf(), length_km=1.0,
                     scheme=MultiplexScheme.named("smf"))

    def test_negative_length(self):
        with pytest.raises(ConfigError):
            LinkPlan(fiber=FiberSpec.smf(), length_km=-1.0,
                     scheme=MultiplexScheme.named("smf"))


# Every way to write to a dict, as (label, write of `value` at `key`).
_MAP_WRITES = [
    ("[]=", lambda m, key, value: operator.setitem(m, key, value)),
    ("del", lambda m, key, value: operator.delitem(m, key)),
    ("update", lambda m, key, value: m.update({key: value})),
    ("pop", lambda m, key, value: m.pop(key)),
    ("popitem", lambda m, key, value: m.popitem()),
    ("setdefault", lambda m, key, value: m.setdefault((key, 0), value)),
    ("clear", lambda m, key, value: m.clear()),
    ("|=", lambda m, key, value: operator.ior(m, {key: value})),
]


class TestReadOnlyMaps:
    """A spec keeps a read-only copy of its map, so no write can bypass the
    (0, 1) dB/km and >= 0 dB checks or change a shared preset."""

    @pytest.mark.parametrize("name", preset_names())
    @pytest.mark.parametrize("label, write", _MAP_WRITES,
                             ids=[label for label, _ in _MAP_WRITES])
    def test_every_write_raises(self, name, label, write):
        link = get_preset(name).link
        for spec_map in (link.fiber.attenuation_db_per_km,
                         link.quantum_path_components[0].insertion_loss_db):
            before = dict(spec_map)
            with pytest.raises(TypeError, match="read-only"):
                write(spec_map, next(iter(spec_map)), -5.0)
            assert spec_map == before

    def test_caller_dict_changed_after_build(self):
        attenuation = {(Mode.FUNDAMENTAL, Band.QUANTUM): 0.19,
                       (Mode.FUNDAMENTAL, Band.CLASSICAL): 0.192}
        fiber = FiberSpec(FiberKind.SMF, attenuation)
        losses = {Mode.FUNDAMENTAL: 0.49}
        mux = ComponentSpec("mux", losses, Side.TRANSMITTER)
        attenuation[(Mode.FUNDAMENTAL, Band.QUANTUM)] = 5.0
        losses[Mode.FUNDAMENTAL] = -1.0
        assert fiber.attenuation(Mode.FUNDAMENTAL, Band.QUANTUM) == 0.19
        assert mux.loss_for(Mode.FUNDAMENTAL) == 0.49

    def test_repr_and_equality_are_the_dicts(self):
        losses = {Mode.LP01: 2.6, Mode.LP02: 3.7}
        spec_map = ComponentSpec("mux", losses, Side.TRANSMITTER).insertion_loss_db
        assert spec_map == losses and repr(spec_map) == repr(losses)
        assert hash(spec_map) == hash(ComponentSpec(
            "mux", dict(losses), Side.TRANSMITTER).insertion_loss_db)


def test_preset_modes():
    lp02in = get_preset("lp02in")
    assert lp02in.link.scheme.quantum_mode is Mode.LP01
    assert lp02in.link.scheme.classical_mode is Mode.LP02
    lp01in = get_preset("lp01in")
    assert lp01in.link.scheme.quantum_mode is Mode.LP02
