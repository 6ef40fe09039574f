"""Report rows of the verify suites: failing rows name their first witness."""

from nilorbit import verify


def test_failing_row_names_its_first_witness():
    rows = {row["check"]: row for row in verify.springer_suite(4)}
    product = rows["flag-count-product-case"]
    assert product["ok"] is False
    assert product["witness"] == {"n": 4, "m": 2, "expected": [1, 2, 1], "got": [1, 3, 1]}
    assert all("witness" not in row for row in rows.values() if row["ok"])

