"""Exact field arithmetic: rationals and prime fields, no floats ever."""

from fractions import Fraction

import pytest

from frametc.fields import (
    F2,
    Field,
    FieldError,
    MAX_CHARACTERISTIC,
    QQ,
    field_from_json,
    field_of,
    parse_field,
)


class TestRationals:
    def test_arithmetic_is_exact_fractions(self):
        a, b = Fraction(1, 3), Fraction(1, 6)
        assert QQ.add(a, b) == Fraction(1, 2)
        assert QQ.sub(a, b) == Fraction(1, 6)
        assert QQ.mul(a, b) == Fraction(1, 18)
        assert QQ.neg(a) == Fraction(-1, 3)
        assert isinstance(QQ.add(a, b), Fraction)

    def test_zero_one_types(self):
        # 0 and 1 are the plain ints in every field, and int arithmetic stays int.
        half = Fraction(1, 2)
        assert QQ.add(0, half) == half and QQ.mul(1, half) == half
        assert type(QQ.sign_to_coeff(0)) is int and type(QQ.sign_to_coeff(1)) is int
        assert type(QQ.mul(QQ.add(2, 3), QQ.neg(1))) is int
        assert QQ.mul(half, 2) == 1

    def test_invert(self):
        assert QQ.invert(Fraction(2, 3)) == Fraction(3, 2)
        with pytest.raises(ZeroDivisionError):
            QQ.invert(Fraction(0))

    def test_coerce_keeps_int_and_fraction(self):
        c = QQ.coerce(7)
        assert c == 7 and type(c) is int
        c = QQ.coerce(Fraction(1, 2))
        assert c == Fraction(1, 2) and isinstance(c, Fraction)

    def test_sign(self):
        assert QQ.sign_to_coeff(0) == 1
        assert QQ.sign_to_coeff(3) == -1
        assert QQ.sign_to_coeff(4) == 1

    def test_format(self):
        # A coefficient prints as str(c): an integral Fraction prints as the int.
        assert str(QQ.coerce(Fraction(-2, 3))) == "-2/3"
        assert str(QQ.coerce(Fraction(5))) == str(QQ.coerce(5)) == "5"


class TestPrimeFields:
    def test_arithmetic_mod_p(self):
        F5 = field_of(5)
        assert F5.add(3, 4) == 2
        assert F5.sub(1, 3) == 3
        assert F5.mul(3, 4) == 2
        assert F5.neg(2) == 3
        assert F5.neg(0) == 0

    def test_invert_fermat(self):
        F5 = field_of(5)
        for a in range(1, 5):
            assert F5.mul(a, F5.invert(a)) == 1
        with pytest.raises((ZeroDivisionError, ValueError)):
            F5.invert(0)

    def test_coerce_reduces_and_handles_fractions(self):
        F5 = field_of(5)
        assert F5.coerce(12) == 2
        assert F5.coerce(-1) == 4
        # 3/4 = 3 * inverse(4) = 3 * 4 = 12 = 2 (mod 5)
        assert F5.coerce(Fraction(3, 4)) == 2
        with pytest.raises(ZeroDivisionError):
            F5.coerce(Fraction(1, 5))

    def test_char_two_signs_collapse(self):
        assert F2.sign_to_coeff(0) == 1
        assert F2.sign_to_coeff(1) == 1
        assert F2.sign_to_coeff(17) == 1


class TestNoFloats:
    @pytest.mark.parametrize("fld", [QQ, F2, field_of(5)])
    def test_floats_rejected(self, fld):
        with pytest.raises(TypeError):
            fld.coerce(0.5)
        with pytest.raises(TypeError):
            fld.coerce(1.0)

    def test_bools_rejected(self):
        with pytest.raises(TypeError):
            QQ.coerce(True)
        with pytest.raises(TypeError):
            F2.coerce(False)

    @pytest.mark.parametrize("fld", [QQ, F2, field_of(3)])
    @pytest.mark.parametrize("text", ["1/2", "3"])
    def test_strings_rejected(self, fld, text):
        # A "p/q" string is read by the ring JSON reader, never by coerce.
        with pytest.raises(TypeError):
            fld.coerce(text)

    @pytest.mark.parametrize("fld", [QQ, F2, field_of(3)])
    def test_int_subclasses_accepted(self, fld):
        class Count(int):
            pass

        p = fld.characteristic
        assert fld.coerce(Count(7)) == (7 % p if p else 7)


class TestClean:
    def test_drops_zeros_and_reduces_mod_p(self):
        assert field_of(5).clean({0: 7, 1: 10, 2: -1, 3: 0}) == {0: 2, 2: 4}
        assert QQ.clean({0: Fraction(4, 2), 1: 0, 2: Fraction(1, 3)}) == {0: 2, 2: Fraction(1, 3)}
        assert F2.clean({0: 2, 1: Fraction(1, 3)}) == {1: 1}

    @pytest.mark.parametrize("fld", [QQ, F2])
    def test_float_raises_as_coerce_does(self, fld):
        with pytest.raises(TypeError) as by_coerce:
            fld.coerce(0.5)
        with pytest.raises(TypeError) as by_clean:
            fld.clean({0: 1, 1: 0.5})
        assert str(by_clean.value) == str(by_coerce.value)

    def test_table_refuses_a_float_product_coefficient(self):
        from frametc.table import TableAlgebra

        with pytest.raises(TypeError) as refused:
            TableAlgebra(QQ, ["1", "x", "z"], [0, 2, 4], {(1, 1): {2: 0.5}})
        assert str(refused.value) == "coefficients must be int or Fraction, got 0.5"


class TestConstructionAndIdentity:
    @pytest.mark.parametrize("bad", [1, 4, 6, 9, -2, 15])
    def test_non_prime_characteristic_rejected(self, bad):
        with pytest.raises(FieldError):
            Field(bad)

    @pytest.mark.parametrize("good", [0, 2, 3, 5, 97, MAX_CHARACTERISTIC])
    def test_valid_characteristics(self, good):
        assert Field(good).characteristic == good

    @pytest.mark.parametrize("big", [2**31 + 11, 2**61 - 1])
    def test_characteristic_past_the_limit_rejected(self, big):
        # Both are prime; the limit is checked before primality.
        with pytest.raises(FieldError, match=f"exceeds the limit {MAX_CHARACTERISTIC}"):
            Field(big)

    def test_interning_and_equality(self):
        assert field_of(2) is field_of(2)
        assert Field(2) == field_of(2)
        assert Field(2) != Field(3)
        assert hash(Field(7)) == hash(field_of(7))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            QQ.characteristic = 5


class TestParsingAndJson:
    @pytest.mark.parametrize(
        "text,char",
        [("char=0", 0), ("char=2", 2), (" char=13 ", 13), ("char5", 5), ("7", 7)],
    )
    def test_parse_field(self, text, char):
        assert parse_field(text).characteristic == char

    @pytest.mark.parametrize("bad", ["charx", "char=", "F2", ""])
    def test_parse_field_rejects(self, bad):
        with pytest.raises(FieldError):
            parse_field(bad)

    def test_token_round_trip(self):
        for fld in (QQ, F2, field_of(7)):
            assert parse_field(fld.token()) is fld

    def test_json_round_trip(self):
        for fld in (QQ, F2, field_of(11)):
            assert field_from_json({"char": fld.characteristic}) is fld
        assert field_from_json("char=3") is field_of(3)
        with pytest.raises(FieldError):
            field_from_json({"characteristic": 2})
        with pytest.raises(FieldError):
            field_from_json(2)
