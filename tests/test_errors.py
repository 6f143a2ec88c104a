import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringmot.errors import SizeGuardError, power_size, require_size


class TestRequireSize:
    @pytest.mark.parametrize("size, named", [
        (2049, "grid_size = 2049 exceeds the 2048 guard"),
        (("3! * 33336", 200016), "grid_size = 3! * 33336 = 200016 exceeds the 2048 guard"),
        (("3^99999", None), "grid_size = 3^99999 exceeds the 2048 guard"),
    ], ids=["int", "factors-and-value", "factors-alone"])
    def test_one_message_form(self, size, named):
        with pytest.raises(SizeGuardError) as info:
            require_size("grid_size", size, 2048)
        assert str(info.value) == named

    @pytest.mark.parametrize("size", [2048, 0, ("2^11", 2048)], ids=["at-limit", "zero", "pair-at-limit"])
    def test_within_the_limit_passes(self, size):
        require_size("grid_size", size, 2048)


class TestPowerSize:
    @given(st.integers(0, 3000), st.integers(0, 40), st.integers(1, 10**7))
    def test_unbuilt_only_past_the_limit(self, base, exponent, limit):
        factors, value = power_size(base, exponent, limit)
        assert factors == f"{base}^{exponent}"
        assert value == base ** exponent if value is not None else base ** exponent > limit

    def test_at_the_bit_length(self):
        # 2^20 is the limit itself, 2^21 is built and named with its value, 2^22 is not built
        limit = 1 << 20
        assert power_size(2, 20, limit) == ("2^20", limit)
        assert power_size(2, 21, limit) == ("2^21", 1 << 21)
        assert power_size(2, 22, limit) == ("2^22", None)

    @pytest.mark.parametrize("base, exponent", [(3, 10**7), (10**8, 2), (2, 10**18)])
    def test_huge_sizes_are_bounded(self, base, exponent):
        start = time.perf_counter()
        assert power_size(base, exponent, 200_000) == (f"{base}^{exponent}", None)
        assert time.perf_counter() - start < 0.01
