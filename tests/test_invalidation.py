"""The shared invalidation vocabulary and its use by StoreIntegrityError."""

import warnings

import pytest

from repro.errors import StoreIntegrityError
from repro.invalidation import InvalidationReason


class TestEnum:
    def test_values_are_strings(self):
        for member in InvalidationReason:
            assert isinstance(member, str)
            assert str(member) == member.value

    def test_vocabulary_is_pinned(self):
        assert sorted(m.value for m in InvalidationReason) == [
            "corrupt_columns",
            "delta_churn",
            "fingerprint_mismatch",
            "format_version",
            "key_mismatch",
            "malformed_manifest",
            "touch_absent",
        ]


class TestCoerceReason:
    """StoreIntegrityError coerces ``reason`` through the enum, silently."""

    def test_enum_passes_through_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exc = StoreIntegrityError(
                "boom", reason=InvalidationReason.DELTA_CHURN
            )
        assert exc.reason is InvalidationReason.DELTA_CHURN

    def test_canonical_string_passes_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exc = StoreIntegrityError("boom", reason="corrupt_columns")
        assert exc.reason is InvalidationReason.CORRUPT_COLUMNS


class TestStoreIntegrityErrorReason:
    def test_explicit_reason_kept(self):
        exc = StoreIntegrityError(
            "boom", reason=InvalidationReason.DELTA_CHURN
        )
        assert exc.reason is InvalidationReason.DELTA_CHURN

    def test_string_reason_coerced(self):
        exc = StoreIntegrityError("boom", reason="key_mismatch")
        assert exc.reason is InvalidationReason.KEY_MISMATCH

    def test_reason_is_required(self):
        with pytest.raises(TypeError):
            StoreIntegrityError("nodes column fails its CRC-32 check")

    def test_free_form_reason_rejected(self):
        # Only members (or their exact values) are accepted; nothing is
        # inferred from free-form text.
        with pytest.raises(ValueError):
            StoreIntegrityError("boom", reason="nodes column fails its CRC-32 check")
