"""Report rows of the verify suites: failing rows name their first witness."""

import ast
from pathlib import Path

import pytest

import nilorbit
from nilorbit import pairs, verify
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


def test_each_counted_pair_is_classified_once(monkeypatch):
    """The slice and exotic reports classify each case once per prime, and
    a conjugate's fiber count is read against the fiber polynomial of its
    orbit, not against a second classification."""
    builds = []
    init = pairs.MixedClassifier.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(pairs.MixedClassifier, "__init__", counted)
    for n in (1, 2, 3):
        builds.clear()
        verify.slice_report(n, (3, 5, 7))
        assert len(builds) == 3 * len(verify.slice_cases(n)), n
    for n in (1, 2):
        builds.clear()
        verify.exotic_orbit_report(n)
        assert len(builds) == 3 * len(verify.exotic_orbit_cases(n)), n
    builds.clear()
    verify.fiber_conjugation_failures(3, 0)
    assert len(builds) == 34


def test_a_class_that_depends_on_the_prime_raises(monkeypatch):
    """diag(1, 4) is central mod 3 and regular mod 5 and 7: its rows would
    mix counts of two orbits, so the reports name the case instead."""
    slice_case = {"name": "torus-1-4", "diag": [1, 4], "unip": [], "vtail": [1], "steps": [1, 2]}
    monkeypatch.setattr(verify, "slice_cases", lambda n: [slice_case])
    assert verify.slice_report(2, (5, 7))
    with pytest.raises(RuntimeError, match=r"torus-1-4: the primes \[3, 5\]"):
        verify.slice_report(2, (3, 5))
    exotic_case = {"name": "torus-1-4", "torus": [1, 4], "gen": [], "vtail": []}
    monkeypatch.setattr(verify, "exotic_orbit_cases", lambda n: [exotic_case])
    with pytest.raises(RuntimeError, match=r"torus-1-4: the primes \[3, 5, 7\]"):
        verify.exotic_orbit_report(2)
    monkeypatch.setattr(verify, "EXOTIC_PRIMES", (5, 7))
    assert verify.exotic_orbit_report(2)


COUNTING_MODULES = ("flags", "symplectic", "pairs", "counting", "gfmat", "partitions")


def verdict_names(source: str) -> set[str]:
    """The names, attributes, parameters, keywords, definitions and string
    keys of the source that are `ok` or end in `_ok`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)):
            found.add(node.arg or "")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Dict):
            found.update(key.value for key in node.keys if isinstance(key, ast.Constant))
        elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            found.add(node.slice.value)
    return {
        name for name in found if isinstance(name, str) and (name == "ok" or name.endswith("_ok"))
    }


def imported_modules(source: str) -> set[str]:
    """The last dotted component of every module or name the source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.add(node.module or "")
            if not node.module:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return {name.rsplit(".", 1)[-1] for name in found}


def test_verdicts_are_judged_only_in_verify():
    """The counting modules return counts, polynomials and dimensions: no
    verdict name, flag or key appears in them.  The command line reaches
    them only through `verify`, which judges every check."""
    package = Path(nilorbit.__file__).parent
    found = {
        module: names
        for module in COUNTING_MODULES
        if (names := verdict_names((package / f"{module}.py").read_text()))
    }
    assert found == {}
    assert imported_modules((package / "cli.py").read_text()) & {"flags", "symplectic"} == set()
