from decimal import Decimal
from fractions import Fraction as F

import pytest

from nsboxes.boxes import make_correlated, make_even_parity, make_npr
from nsboxes.boxfile import (
    BoxFileError,
    box_from_text,
    box_to_text,
    load_box,
    save_box,
)
from nsboxes.distill import iterate


def test_round_trip_through_text():
    for box in [make_npr(3), make_even_parity(2), make_correlated(2, F(2, 7))]:
        assert box_from_text(box_to_text(box)) == box


def test_round_trip_through_files(tmp_path):
    box = make_correlated(3, F(1, 3))
    path = tmp_path / "box.txt"
    save_box(box, path)
    assert load_box(path) == box


def test_round_trip_past_the_decimal_digit_limit(tmp_path):
    eps = iterate(2, F(1, 2), 13).final
    assert len(str(Decimal(eps.denominator))) > 4300
    box = make_correlated(2, eps)
    path = tmp_path / "big.box"
    save_box(box, path)
    assert load_box(path) == box


def test_comments_blanks_and_order_insensitivity():
    text = (
        "# a two-party box\n"
        "n 2\n"
        "\n"
        "11 01 1/2   # odd-parity branch\n"
        "11 10 1/2\n"
        "00 00 1/2\n"
        "00 11 1/2\n"
        "01 00 1/2\n"
        "01 11 1/2\n"
        "10 00 1/2\n"
        "10 11 1/2\n"
    )
    assert box_from_text(text) == make_npr(2)


def test_omitted_records_are_zero():
    assert box_from_text(box_to_text(make_npr(2))).prob((1, 1), (0, 0)) == 0


def test_broken_normalization_names_the_input():
    text = "n 2\n00 00 1/2\n00 11 1/4\n"
    with pytest.raises(BoxFileError, match=r"x=\(0, 0\)"):
        box_from_text(text)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("00 00 1\n", "before 'n' header"),
        ("n 2\nn 2\n", "duplicate header"),
        ("n two\n", "malformed header"),
        ("n 2\n000 00 1\n", "must be 2-bit"),
        ("n 2\n00 0x 1\n", "must be 2-bit"),
        ("n 2\n00 00 one\n", "bad probability"),
        ("n 2\n00 00 1/2 extra\n", "expected 'x a p'"),
        ("n 2\n00 00 1/2\n00 00 1/2\n", "duplicate record"),
        ("", "missing 'n' header"),
    ],
)
def test_malformed_files_rejected(text, fragment):
    with pytest.raises(BoxFileError, match=fragment):
        box_from_text(text)


def test_negative_probability_rejected():
    text = "n 1\n0 0 3/2\n0 1 -1/2\n1 0 1\n"
    with pytest.raises(BoxFileError, match="negative"):
        box_from_text(text)
