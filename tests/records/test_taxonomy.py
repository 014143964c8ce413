"""Unit tests for the root-cause taxonomy."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.records.taxonomy import (
    Category,
    EnvironmentSubtype,
    HardwareSubtype,
    NetworkSubtype,
    SoftwareSubtype,
    TaxonomyError,
    all_categories,
    all_subtypes,
    category_of,
    format_label,
    is_power_problem,
    is_temperature_problem,
    parse_category,
    parse_subtype,
    validate_pair,
)


class TestParsing:
    def test_parse_category_round_trip(self):
        for cat in Category:
            assert parse_category(cat.value) is cat

    def test_parse_category_case_insensitive(self):
        assert parse_category("hw") is Category.HARDWARE
        assert parse_category(" env ") is Category.ENVIRONMENT

    def test_parse_category_unknown(self):
        with pytest.raises(TaxonomyError):
            parse_category("BOGUS")

    def test_parse_subtype_round_trip(self):
        for sub in all_subtypes():
            assert parse_subtype(sub.value) is sub

    def test_parse_subtype_unknown(self):
        with pytest.raises(TaxonomyError):
            parse_subtype("NOPE")

    @given(st.text(max_size=10))
    def test_parse_category_never_crashes_weirdly(self, token):
        try:
            cat = parse_category(token)
        except TaxonomyError:
            return
        assert isinstance(cat, Category)


class TestStructure:
    def test_six_categories(self):
        assert len(all_categories()) == 6
        assert set(all_categories()) == set(Category)

    def test_subtype_tokens_unique(self):
        tokens = [s.value for s in all_subtypes()]
        assert len(tokens) == len(set(tokens))

    def test_category_of_every_subtype(self):
        for sub in all_subtypes():
            assert category_of(sub) in Category

    def test_category_of_rejects_category(self):
        with pytest.raises(TaxonomyError):
            category_of(Category.HARDWARE)  # type: ignore[arg-type]

    def test_validate_pair_accepts_none(self):
        for cat in Category:
            validate_pair(cat, None)

    def test_validate_pair_accepts_matching(self):
        validate_pair(Category.HARDWARE, HardwareSubtype.MEMORY)
        validate_pair(Category.SOFTWARE, SoftwareSubtype.DST)
        validate_pair(Category.ENVIRONMENT, EnvironmentSubtype.UPS)
        validate_pair(Category.NETWORK, NetworkSubtype.SWITCH)

    def test_validate_pair_rejects_mismatch(self):
        with pytest.raises(TaxonomyError):
            validate_pair(Category.SOFTWARE, HardwareSubtype.MEMORY)

    def test_validate_pair_rejects_subtype_on_human(self):
        with pytest.raises(TaxonomyError):
            validate_pair(Category.HUMAN, HardwareSubtype.CPU)

    def test_validate_pair_rejects_subtype_on_undetermined(self):
        with pytest.raises(TaxonomyError):
            validate_pair(Category.UNDETERMINED, SoftwareSubtype.OS)


class TestClassifiers:
    def test_power_problems(self):
        assert is_power_problem(EnvironmentSubtype.POWER_OUTAGE)
        assert is_power_problem(EnvironmentSubtype.POWER_SPIKE)
        assert is_power_problem(EnvironmentSubtype.UPS)
        assert is_power_problem(HardwareSubtype.POWER_SUPPLY)
        assert not is_power_problem(EnvironmentSubtype.CHILLER)
        assert not is_power_problem(HardwareSubtype.CPU)
        assert not is_power_problem(None)

    def test_temperature_problems(self):
        assert is_temperature_problem(HardwareSubtype.FAN)
        assert is_temperature_problem(EnvironmentSubtype.CHILLER)
        assert not is_temperature_problem(HardwareSubtype.MEMORY)
        assert not is_temperature_problem(None)


class TestLabels:
    def test_every_category_has_label(self):
        for cat in all_categories():
            assert format_label(cat)

    def test_every_subtype_has_label(self):
        for sub in all_subtypes():
            assert format_label(sub)

    def test_labels_human_readable(self):
        assert format_label(HardwareSubtype.MEMORY) == "Memory DIMM"
        assert format_label(Category.ENVIRONMENT) == "Environment"
