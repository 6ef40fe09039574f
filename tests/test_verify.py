"""Report rows of the verify suites: failing rows name their first witness."""

from nilorbit import verify


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
