import time
from fractions import Fraction as F

import pytest

from hgdecide.exactnum import is_half_integer, parse_rat


def test_parse_and_half_integers():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("-2") == -2
    assert parse_rat(" +6/4\n") == F(3, 2) and parse_rat("-0/5") == 0
    assert is_half_integer(F(7, 2)) and is_half_integer(F(3)) and not is_half_integer(F(1, 3))


# Fraction() itself takes decimals, exponents, "_" separators and any
# script's digits, and 12 bytes of "1e10000000" stand for a 33-million-bit
# integer: all are refused before any number is built
@pytest.mark.parametrize(
    "text", ["1e10000000", "1.5", "1_000", "٣", "0x10", "3/-4", "1/2/3", "", " ", "1 /2", "inf", "nan"]
)
def test_only_integers_and_ratios_parse(text):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_rat(text)
    assert time.perf_counter() - start < 0.1
