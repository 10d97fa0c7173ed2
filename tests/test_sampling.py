import pytest

from nesthilb.errors import NonConstantSum, SpecializationExhausted, SpecializationPole
from nesthilb.sampling import MAX_REDRAWS, certified_value

WHERE = "p2 (2, 1, nested)"


def points(*pairs):
    it = iter(pairs)
    return lambda: next(it)


def pole_at_zero(x, y):
    if x == 0:
        raise SpecializationPole(f"pole at ({x}, {y})")
    return 5


def test_pole_is_redrawn_and_left_out():
    draw = points((0, 1), (1, 1), (2, 1), (3, 1))
    value, used = certified_value(pole_at_zero, draw, 3, WHERE)
    assert value == 5
    assert used == ((1, 1), (2, 1), (3, 1))


def test_poles_on_every_draw_exhaust():
    calls = []

    def draw():
        calls.append(1)
        return 0, 1

    with pytest.raises(SpecializationExhausted, match=r"p2 \(2, 1, nested\)") as info:
        certified_value(pole_at_zero, draw, 3, WHERE)
    assert len(calls) == MAX_REDRAWS
    assert "last point (0, 1) (pole at (0, 1))" in str(info.value)


def test_non_constant_values_are_listed_with_their_points():
    draw = points((1, 2), (3, 4), (3, 5))
    with pytest.raises(NonConstantSum) as info:
        certified_value(lambda x, y: x, draw, 3, WHERE)
    message = str(info.value)
    assert WHERE in message
    for text in ("1 at (1, 2)", "3 at (3, 4)", "3 at (3, 5)"):
        assert text in message


def test_a_third_point_that_differs_alone_is_caught():
    draw = points((1, 2), (3, 4), (5, 6))
    with pytest.raises(NonConstantSum) as info:
        certified_value(lambda x, y: 3 if x == 5 else 1, draw, 3, WHERE)
    assert "1 at (1, 2), 1 at (3, 4), 3 at (5, 6)" in str(info.value)


def test_non_constant_table_names_the_entry_that_moved():
    draw = points((1, 2), (3, 4), (3, 5))
    with pytest.raises(NonConstantSum) as info:
        certified_value(lambda x, y: {(0, 0): 1, (1, 0): x}, draw, 3, WHERE)
    message = str(info.value)
    assert f"{WHERE} entry (1, 0): 1 at (1, 2), 3 at (3, 4)" in message
