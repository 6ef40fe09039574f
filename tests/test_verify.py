"""Report rows of the verify suites: failing rows name their first witness."""

import pytest

from nilorbit import verify
from nilorbit.counting import CountSeries, slope_estimates
from nilorbit.gfmat import mat_mul
from nilorbit.symplectic import SymplecticSpace, exotic_fiber_count


def test_failing_row_names_its_first_witness():
    rows = {row["check"]: row for row in verify.springer_suite(4)}
    product = rows["flag-count-product-case"]
    assert product["ok"] is False
    assert product["witness"] == {"n": 4, "m": 2, "expected": [1, 2, 1], "got": [1, 3, 1]}
    assert all("witness" not in row for row in rows.values() if row["ok"])


def test_twisted_set_witness_counts_both_sets(monkeypatch):
    iotheta_set = verify.symp.iotheta_set

    def extra_image(space):
        solution, image = iotheta_set(space)
        return solution, image | {((1, 1), (0, 1))}

    monkeypatch.setattr(verify.symp, "iotheta_set", extra_image)
    assert verify.twisted_set_failures((3, 5)) == [
        {"p": 3, "expected": 2, "got": [2, 3]},
        {"p": 5, "expected": 4, "got": [4, 5]},
    ]


def test_twisted_set_coincidence_needs_odd_primes():
    """Over GF(2) the form is symmetric: 4 fixed points have 1 image."""
    with pytest.raises(ValueError, match="odd primes only, got p=2"):
        verify.twisted_set_failures((3, 2))


@pytest.mark.parametrize("n", [-1, 0, 4])
def test_slice_cases_are_tabulated_for_n_up_to_3(n):
    with pytest.raises(ValueError, match=r"tabulated for n in \{1, 2, 3\}"):
        verify.slice_cases(n)


def growth_estimates(counts: dict, primes) -> set[int]:
    """The distinct growth estimates of the counts between consecutive primes."""
    return set(slope_estimates(CountSeries.of([(p, counts[p]) for p in primes])))


@pytest.mark.parametrize("primes", [(3, 5, 7), (3, 5)])
def test_slice_dimensions_are_the_growth_estimates(primes):
    """Growth between the row's primes agrees pair by pair and equals the
    exact degree that each slice-dimension row reports."""
    for n in (1, 2, 3):
        for row in verify.slice_report(n, primes):
            counts = dict(zip(primes, row["counts"]))
            if row["dim_estimate"] is None:
                assert not any(counts.values()), row
            else:
                assert growth_estimates(counts, primes) == {row["dim_estimate"]}, row


def test_exotic_dimensions_are_the_growth_estimates():
    """Growth between primes agrees with the exact degrees of every exotic
    row, at the primes where the estimates settle: orbit and slice counts
    at (3, 5), or (5, 7) for the unipotent-vector case, whose slice count
    (p - 1)^2 (2p + 1) grows like p^4 between 3 and 5; fiber counts at
    (3, 5, 7) for n = 1 and (5, 7, 11) for n = 2."""
    for n, fiber_primes in ((1, (3, 5, 7)), (2, (5, 7, 11))):
        cases = {case["name"]: case for case in verify.exotic_orbit_cases(n)}
        for row in verify.exotic_orbit_report(n):
            counts = dict(zip(row["primes"], row["counts"]))
            if row["check"] == "slice-dim":
                primes = (5, 7) if row["case"] == "unipotent-vector" else (3, 5)
                sizes = dict(zip(row["primes"], row["orbit_sizes"]))
                assert growth_estimates(sizes, primes) == {row["orbit_dim"]}, row
            else:
                primes = fiber_primes
                for p in set(primes) - set(counts):
                    space = SymplecticSpace(n, p)
                    s, u, v = verify._exotic_case_data(cases[row["case"]], space)
                    counts[p] = exotic_fiber_count(space, s, mat_mul(s, u, p), v)
            assert growth_estimates(counts, primes) == {row["dim_estimate"]}, row
