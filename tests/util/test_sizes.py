import pytest

from repro.util.sizes import human_bytes, human_count


class TestHumanBytes:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, "0 B"),
            (512, "512 B"),
            (1024, "1.00 KB"),
            (49 * 2**30, "49.00 GB"),
            (int(1.5 * 2**20), "1.50 MB"),
        ],
    )
    def test_formatting(self, value, expected):
        assert human_bytes(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            human_bytes(-1)


class TestHumanCount:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, "0"),
            (999, "999"),
            (1_130_000_000, "1.13B"),
            (12_700_000, "12.70M"),
            (21_300, "21.30K"),
        ],
    )
    def test_formatting(self, value, expected):
        assert human_count(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            human_count(-5)

