import sys

import pytest


@pytest.fixture
def int_digit_limit():
    """The interpreter's int-to-str digit limit at its default, 4300;
    skips on interpreters without one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts ints of any size to str")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
