import pytest

from gazescreen.core import (
    Group,
    Participant,
    VideoMeta,
    normalize_coordinates,
)

META = VideoMeta("v", 10.0, 30.0, 1920, 1080)


def test_normalize_midpoint():
    x, y, on = normalize_coordinates(960, 540, META)
    assert (x, y) == (0.5, 0.5)
    assert on


def test_normalize_origin():
    x, y, on = normalize_coordinates(0, 0, META)
    assert (x, y) == (0.0, 0.0)
    assert on


def test_normalize_offscreen_flagged():
    x, y, on = normalize_coordinates(2000, 540, META)
    assert x == pytest.approx(2000 / 1920)
    assert y == 0.5
    assert not on


def test_normalize_round_trip():
    import random

    rnd = random.Random(3)
    for _ in range(200):
        rx, ry = rnd.uniform(0, 1920), rnd.uniform(0, 1080)
        x, y, _ = normalize_coordinates(rx, ry, META)
        bx, by = x * META.width_px, y * META.height_px
        assert abs(bx - rx) <= 1e-9 * max(1.0, abs(rx))
        assert abs(by - ry) <= 1e-9 * max(1.0, abs(ry))


def test_normalize_arrays_match_scalars():
    import numpy as np

    raw_x = np.array([0.0, 960.0, 1920.0, 2000.0, -1.0, 500.0])
    raw_y = np.array([0.0, 540.0, 1080.0, 540.0, 540.0, 1081.0])
    x, y, on = normalize_coordinates(raw_x, raw_y, META)
    for i in range(len(raw_x)):
        assert (x[i], y[i], bool(on[i])) == normalize_coordinates(raw_x[i], raw_y[i], META)
    assert on.tolist() == [True, True, True, False, False, False]


def test_participant_invariants():
    with pytest.raises(ValueError):
        Participant("c", Group.CONTROL, cars=30)
    with pytest.raises(ValueError):
        Participant("a", Group.ASD, cars=70)
    Participant("a", Group.ASD, cars=35)
