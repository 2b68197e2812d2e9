from fractions import Fraction as F

from hgdecide.exactnum import is_half_integer, parse_rat


def test_parse_and_half_integers():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("-2") == -2
    assert is_half_integer(F(7, 2)) and is_half_integer(F(3)) and not is_half_integer(F(1, 3))
