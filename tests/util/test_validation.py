import pytest

from repro.util.validation import check_in_range, check_positive


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1)
        check_positive("x", 0.001)

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)


class TestCheckInRange:
    def test_inclusive_bounds(self):
        check_in_range("k", 1, 1, 63)
        check_in_range("k", 63, 1, 63)

    @pytest.mark.parametrize("bad", [0, 64])
    def test_rejects_outside(self, bad):
        with pytest.raises(ValueError):
            check_in_range("k", bad, 1, 63)

