import pytest

from pglrep.poincare import (
    IntPolynomial,
    NotDivisible,
    poly_divexact,
    pt_sl3,
    pt_so3,
)


class TestArithmetic:
    def test_canonical_form(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial(()).is_zero()
        assert IntPolynomial((0,)).degree() == -1

    @pytest.mark.parametrize("coeffs", [(1.9, 2.5), ("7",), (1, True), (2.0,)])
    def test_coefficients_must_be_ints(self, coeffs):
        with pytest.raises(TypeError):
            IntPolynomial(coeffs)

    @pytest.mark.parametrize("k", [-1, -2])
    def test_negative_powers_rejected(self, k):
        with pytest.raises(ValueError, match="negative powers"):
            IntPolynomial((1, 1)) ** k

    @pytest.mark.parametrize(
        "make",
        [
            lambda p: p + 1,
            lambda p: p - 1,
            lambda p: 1 - p,
            lambda p: p ** True,
            lambda p: p ** 2.0,
            lambda p: poly_divexact(p, 3),
            lambda p: poly_divexact((1, 1), p),
            lambda p: p(1.5),
            lambda p: p(True),
        ],
        ids=[
            "add-int", "sub-int", "int-sub", "pow-bool", "pow-float", "divexact-int",
            "divexact-tuple", "call-float", "call-bool",
        ],
    )
    def test_non_polynomial_operands_rejected(self, make):
        # these raised AttributeError, p ** True returned p, p(1.5) gave 2.5
        # and p(True) read True as 1
        with pytest.raises(TypeError):
            make(IntPolynomial((1, 1)))

    def test_binomial_square(self):
        one_plus_t = IntPolynomial((1, 1))
        assert one_plus_t**2 == IntPolynomial((1, 2, 1))

    def test_cube_binomial(self):
        p = IntPolynomial((1, 0, 0, 1))
        assert p * p == IntPolynomial((1, 0, 0, 2, 0, 0, 1))

    def test_multiply_by_zero(self):
        p = IntPolynomial((3, -1, 2))
        assert (p * IntPolynomial()).is_zero()

    def test_add(self):
        assert IntPolynomial((1, 1)) + IntPolynomial((0, -1)) == IntPolynomial((1,))

    def test_add_shorter_operand_on_the_left(self):
        assert IntPolynomial((1,)) + IntPolynomial((0, 2, 3)) == IntPolynomial((1, 2, 3))

    def test_evaluation(self):
        p = IntPolynomial((1, 2, 3))
        assert p(0) == 1
        assert p(2) == 17


class TestDivexact:
    def test_difference_of_powers(self):
        num = IntPolynomial((1, 0, 0, 0, -1))  # 1 - t^4
        den = IntPolynomial((1, 0, -1))  # 1 - t^2
        assert poly_divexact(num, den) == IntPolynomial((1, 0, 1))

    def test_product_cancels(self):
        a = IntPolynomial((1, 0, -1))
        b = IntPolynomial((1, 0, 0, 0, -1))
        assert poly_divexact(a * b, a) == b

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            poly_divexact(IntPolynomial((1, 1)), IntPolynomial((1, 0, 1)))

    def test_leading_coefficient_must_divide(self):
        # 1 + t over 2t: the quotient's only coefficient would be 1/2
        with pytest.raises(NotDivisible, match="leading coefficient does not divide"):
            poly_divexact(IntPolynomial((1, 1)), IntPolynomial((0, 2)))

    def test_zero_over_a_longer_denominator_is_zero(self):
        assert poly_divexact(IntPolynomial(), IntPolynomial((1, 1))).is_zero()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divexact(IntPolynomial((1,)), IntPolynomial())

    def test_multiplication_inverts_division(self):
        num = IntPolynomial((1, 0, 0, 1)) ** 4 - IntPolynomial((1, 1)) ** 4 * IntPolynomial.t_power(4)
        den = IntPolynomial((1, 0, -1)) * IntPolynomial((1, 0, 0, 0, -1))
        q = poly_divexact(num, den)
        assert q * den == num


class TestSeries:
    def test_genus_two_nontrivial_class(self):
        # frozen from the multiplication-check oracle above
        assert pt_so3(1, 2) == IntPolynomial((1, 0, 1, 4, 1, 0, 1))

    def test_quotient_shape_for_nontrivial_class(self):
        for g in (2, 3, 4, 5):
            q = pt_so3(1, g)
            assert q.degree() == 6 * g - 6
            assert q(0) == 1
            assert all(c >= 0 for c in q.coeffs)

    def test_trivial_class_is_not_an_exact_quotient(self):
        # the stated closed form has a simple zero at t = 1 against a double
        # zero in the denominator, for every genus
        for g in (2, 3, 4):
            with pytest.raises(NotDivisible):
                pt_so3(0, g)

    def test_sl3_equals_so3_for_nontrivial_class(self):
        for g in (2, 3):
            assert pt_sl3(1, g) == pt_so3(1, g)
            assert pt_sl3(1, g)(0) == 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pt_so3(2, 2)
        with pytest.raises(ValueError):
            pt_so3(1, 1)

    @pytest.mark.parametrize("series", [pt_so3, pt_sl3])
    @pytest.mark.parametrize("w2,g", [(1, 2.5), (1.0, 2), (0.0, 2), (True, 2), (1, True), (1, "2")])
    def test_non_int_class_or_genus_rejected(self, series, w2, g):
        # True == 1 once returned the w2 = 1 series; floats raised a bare TypeError
        with pytest.raises(ValueError, match="must be ints"):
            series(w2, g)
