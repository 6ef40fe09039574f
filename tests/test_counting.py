"""Polynomials in Z[q], growth estimates and Gaussian factorials."""

import ast
import math
import random
from pathlib import Path

import pytest

import nilorbit
from nilorbit.counting import (
    CountSeries,
    degree,
    evaluate,
    first_primes,
    gaussian_factorial,
    gaussian_factorial_poly,
    gaussian_int,
    poly_mul,
    slope_estimates,
)


def test_series_validation():
    with pytest.raises(ValueError):
        CountSeries.of([(5, 1), (3, 1)])
    with pytest.raises(ValueError):
        CountSeries.of([(3, 1), (3, 2)])
    with pytest.raises(ValueError):
        CountSeries.of([(3, -1)])


def test_polynomial_evaluation():
    assert evaluate((1, 0, 2), 3) == 19
    assert evaluate((), 5) == 0
    assert degree((1, 0, 2)) == 2
    assert degree((1, 3, 0, 0)) == 1
    assert degree((0, 0)) == degree(()) == 0


def test_slope_examples():
    assert slope_estimates(CountSeries.of([(3, 27), (5, 125), (7, 343)])) == [3, 3]
    assert slope_estimates(CountSeries.of([(3, 12), (5, 30), (7, 56)])) == [2, 2]
    with pytest.raises(ValueError, match="positive"):
        slope_estimates(CountSeries.of([(3, 0), (5, 1)]))
    with pytest.raises(ValueError, match="two points"):
        slope_estimates(CountSeries.of([(3, 27)]))


def test_slope_estimates_values():
    assert slope_estimates(CountSeries.of([(3, 9), (5, 25), (7, 49)])) == [2, 2]
    assert slope_estimates(CountSeries.of([(3, 81), (5, 1), (7, 1)])) == [-9, 0]
    assert slope_estimates(CountSeries.of([(3, 4), (5, 16), (7, 36)])) == [3, 2]


def test_slope_estimates_raise_on_a_half_integer_rate():
    # log(2) / log(4) = 1/2 exactly, and log(1/8) / log(4) = -3/2
    for points in ([(2, 1), (8, 2)], [(2, 8), (8, 1)]):
        with pytest.raises(ValueError, match="half-integer"):
            slope_estimates(CountSeries.of(points))


def test_slope_estimates_agree_with_float_rounding_off_the_halves():
    rng = random.Random(0)
    for _ in range(2000):
        q1 = rng.randrange(2, 40)
        q2 = q1 + rng.randrange(1, 40)
        c1, c2 = rng.randrange(1, 10**9), rng.randrange(1, 10**12)
        rate = math.log(c2 / c1) / math.log(q2 / q1)
        if abs(rate - math.floor(rate) - 0.5) > 1e-6:
            got = slope_estimates(CountSeries.of([(q1, c1), (q2, c2)]))
            assert got == [round(rate)], (q1, c1, q2, c2)


def test_gaussian_values():
    assert gaussian_int(1, 5) == 1
    assert gaussian_int(3, 2) == 7
    assert gaussian_factorial(0, 5) == 1
    assert gaussian_factorial(2, 3) == 4
    assert gaussian_factorial(4, 2) == 1 * 3 * 7 * 15


def test_gaussian_factorial_poly():
    assert gaussian_factorial_poly(0) == [1]
    assert gaussian_factorial_poly(2) == [1, 1]
    assert gaussian_factorial_poly(4) == [1, 3, 5, 6, 5, 3, 1]
    for q in (2, 3, 5):
        val = sum(c * q**i for i, c in enumerate(gaussian_factorial_poly(4)))
        assert val == gaussian_factorial(4, q)


def test_poly_mul():
    assert poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert poly_mul([], [1]) == []
    acc = [5]
    assert poly_mul([1, 1], [0, 1], acc) is acc
    assert acc == [5, 1, 1]
    assert poly_mul([1], [1], [1, 2, 3, 4]) == [2, 2, 3, 4]


def test_first_primes():
    assert first_primes(3) == [2, 3, 5]
    assert first_primes(2, minimum=4) == [5, 7]
    assert first_primes(1, minimum=8) == [11]
    assert first_primes(5, 10) == [11, 13, 17, 19, 23]


def float_uses(source: str) -> list[str]:
    """Float literals, true divisions, float()/round() calls and math.log*
    uses in the source, one "line: what" entry each."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ):
            what = f"{node.func.id}() call"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr.startswith("log")
        ):
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            logs = [a.name for a in node.names if a.name.startswith("log")]
            what = f"from math import {', '.join(logs)}" if logs else None
        if what:
            found.append((node.lineno, what))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_float_guard_sees_each_kind_of_use():
    source = (
        "import math\nfrom math import log2\n"
        "a = 0.5\nb = 1 / 2\nb /= 3\nc = float(2)\nd = round(7, 1)\ne = math.log(3)\n"
        "f = 7 // 2\ng = math.prod([2])\n"
    )
    assert float_uses(source) == [
        "2: from math import log2",
        "3: literal 0.5",
        "4: true division",
        "5: true division",
        "6: float() call",
        "7: round() call",
        "8: math.log",
    ]


def test_library_arithmetic_is_exact():
    """Every count in the library is an integer or a polynomial in Z[q]."""
    package = Path(nilorbit.__file__).parent
    found = {
        path.name: uses
        for path in sorted(package.glob("*.py"))
        if (uses := float_uses(path.read_text()))
    }
    assert found == {}


ENUMERATORS = ("all_vectors", "all_matrices", "unitriangular_elements", "lines")


def functions_calling(module: str, source: str, callees=ENUMERATORS) -> set[str]:
    """"module.function" for each top-level function or class of the source
    that calls one of the callees, by name or as an attribute."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in callees:
                    found.add(f"{module}.{top.name}")
    return found


def test_enumeration_guard_sees_calls_by_name_and_attribute():
    source = (
        "def a(s):\n    return list(s.lines())\n"
        "def b(p):\n    def inner():\n        return gfmat.all_vectors(2, p)\n    return inner\n"
        "def c(p):\n    return all_matrices(2, p)\n"
        "def d(p):\n    return rank(p)\n"
    )
    assert functions_calling("m", source) == {"m.a", "m.b", "m.c"}


def test_library_enumerates_only_check_subjects():
    """Listing vectors, matrices, unipotents or lines is the subject of a
    check, never a route to a count: the census, the twisted-set scan, the
    isotropic flags and the row sets of U meet wUw^-1, plus the enumerator
    of gfmat built on all_vectors."""
    package = Path(nilorbit.__file__).parent
    found = set().union(
        *(functions_calling(path.stem, path.read_text()) for path in package.glob("*.py"))
    )
    assert found == {
        "pairs._census_table",
        "symplectic.iotheta_set",
        "symplectic.isotropic_flags",
        "symplectic._meet_rows",
        "gfmat.all_matrices",
    }


def test_library_estimates_growth_only_for_the_double_flag_bound():
    """Every dimension a check compares is the exact degree of a count.  Growth
    between primes estimates only the double-flag bound, whose count is not
    yet a polynomial; everywhere else the estimator is a test oracle."""
    package = Path(nilorbit.__file__).parent
    found = set().union(
        *(
            functions_calling(path.stem, path.read_text(), ("slope_estimates",))
            for path in package.glob("*.py")
        )
    )
    assert found == {"verify.z_bound"}
