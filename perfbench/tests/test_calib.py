import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import calib  # noqa: E402


def test_nominal_time_is_the_sum_of_the_parts():
    ref = calib.Reference(("logs", "logs", "arrays"))
    want = 2 * calib.PARTS["logs"][1] + calib.PARTS["arrays"][1]
    assert abs(ref.nominal_s - want) < 1e-15
    assert ref() > 0


def test_scaled_divides_out_the_host_speed_around_each_item():
    ref = calib.Reference(("ints",))
    nominal = ref.nominal_s
    # the host runs at half speed for the first two items, then at nominal
    refs = [2 * nominal] * 3 + [nominal] * 4
    lat = [1.0, 1.0, 0.5, 0.5, 0.5, 0.5]
    out = ref.scaled(lat, refs)
    assert len(out) == len(lat)
    # window of item k: refs[k-1 .. k+2]
    assert out[0] == 0.5                 # median of 2n, 2n, 2n
    assert out[1] == 0.5                 # median of 2n, 2n, 2n, n -> 2n
    assert out[2] == 0.5 * 2 / 3         # median of 2n, 2n, n, n -> 1.5n
    assert out[3:] == [0.5, 0.5, 0.5]


def test_speed_is_nominal_over_the_median():
    ref = calib.Reference(("fractions",))
    n = ref.nominal_s
    assert ref.speed([n, 4 * n, n / 2]) == 1.0
