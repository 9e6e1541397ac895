"""Tests of the fault domain: mode validation, bit flips, the registry."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FAULT_MODE_KINDS,
    AxiDegradation,
    DmaCorruption,
    FaultMode,
    PsCoreLoss,
    ReplicaDeath,
    default_fault_domain,
    flip_bit,
    make_fault_mode,
    parse_fault_specs,
)
from repro.fixedpoint.qformat import QFormat


class TestFlipBit:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=32),
        st.data(),
    )
    def test_involution_and_range(self, word_length, data):
        q = QFormat(word_length=word_length, fraction_bits=word_length - 1)
        fixed = data.draw(st.integers(min_value=q.min_int, max_value=q.max_int))
        bit = data.draw(st.integers(min_value=0, max_value=word_length - 1))
        flipped = flip_bit(q, fixed, bit)
        assert q.min_int <= flipped <= q.max_int
        assert flipped != fixed
        # Flipping the same bit twice restores the word.
        assert flip_bit(q, flipped, bit) == fixed

    def test_lsb_flip_of_zero(self):
        q = QFormat(word_length=16, fraction_bits=6)
        assert flip_bit(q, 0, 0) == 1

    def test_sign_bit_flip_of_zero_is_min_int(self):
        q = QFormat(word_length=16, fraction_bits=6)
        assert flip_bit(q, 0, q.word_length - 1) == q.min_int

    def test_out_of_range_bit_rejected(self):
        q = QFormat(word_length=16, fraction_bits=6)
        with pytest.raises(ValueError, match="bit must be"):
            flip_bit(q, 0, 16)
        with pytest.raises(ValueError, match="bit must be"):
            flip_bit(q, 0, -1)


class TestModeValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rate_per_hour"):
            ReplicaDeath(rate_per_hour=-1.0)

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            ReplicaDeath(duration_s=0.0)

    def test_zero_rate_is_legal(self):
        assert ReplicaDeath(rate_per_hour=0.0).rate_per_hour == 0.0

    def test_bad_burst_bits_rejected(self):
        with pytest.raises(ValueError, match="burst_bits"):
            AxiDegradation(burst_bits=0)

    def test_bad_cores_lost_rejected(self):
        with pytest.raises(ValueError, match="cores_lost"):
            PsCoreLoss(cores_lost=0)

    def test_modes_are_frozen_and_hashable(self):
        mode = DmaCorruption(rate_per_hour=3.0, bit=7)
        assert hash(mode) == hash(DmaCorruption(rate_per_hour=3.0, bit=7))
        with pytest.raises(Exception):
            mode.bit = 3


class TestAxiSlowdownFactor:
    def test_halving_the_burst_width_doubles_transfer_time(self):
        # 32-bit words: a 16-bit burst needs two beats per word.
        assert AxiDegradation(burst_bits=16).slowdown_factor() == pytest.approx(2.0)
        assert AxiDegradation(burst_bits=8).slowdown_factor() == pytest.approx(4.0)

    def test_full_width_is_the_identity(self):
        assert AxiDegradation(burst_bits=32).slowdown_factor() == 1.0
        assert AxiDegradation(burst_bits=64).slowdown_factor() == 1.0


class TestRegistry:
    def test_every_kind_is_registered(self):
        assert FAULT_MODE_KINDS == (
            "replica_death", "axi_degraded", "ps_core_loss", "dma_corruption",
        )

    def test_default_domain_covers_all_kinds_with_positive_rates(self):
        domain = default_fault_domain()
        assert [m.kind for m in domain] == list(FAULT_MODE_KINDS)
        assert all(isinstance(m, FaultMode) for m in domain)
        assert all(m.rate_per_hour > 0 for m in domain)

    def test_make_fault_mode_maps_param_per_kind(self):
        assert make_fault_mode("replica_death", 5.0, 1).replica == 1
        assert make_fault_mode("axi_degraded", 5.0, 4).burst_bits == 4
        assert make_fault_mode("ps_core_loss", 5.0, 2).cores_lost == 2
        assert make_fault_mode("dma_corruption", 5.0, 30).bit == 30

    def test_make_fault_mode_defaults_rate_from_registry(self):
        mode = make_fault_mode("replica_death")
        assert mode.rate_per_hour == default_fault_domain()[0].rate_per_hour

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            make_fault_mode("gamma_ray")


class TestParseFaultSpecs:
    def test_full_spec(self):
        (mode,) = parse_fault_specs(["axi_degraded:12:4"])
        assert mode.kind == "axi_degraded"
        assert mode.rate_per_hour == 12.0
        assert mode.burst_bits == 4

    def test_kind_only_uses_default_rate(self):
        (mode,) = parse_fault_specs(["ps_core_loss"])
        assert mode.kind == "ps_core_loss"
        assert mode.rate_per_hour > 0

    def test_empty_list_is_the_default_domain(self):
        assert parse_fault_specs([]) == default_fault_domain()

    def test_duration_applies_to_every_mode(self):
        modes = parse_fault_specs(["replica_death:2", "dma_corruption"], duration_s=1.5)
        assert all(m.duration_s == 1.5 for m in modes)
        # ... including the default-domain expansion.
        assert all(m.duration_s == 1.5 for m in parse_fault_specs([], duration_s=1.5))

    @pytest.mark.parametrize("spec", ["", "a:b:c:d", "replica_death:fast", "nope:1"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_fault_specs([spec])
