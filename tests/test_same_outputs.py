"""``tools/same_outputs.py``: every differing output named, JSON floats summed up."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_every_differing_output_listed():
    old = {"-o a.csv": b"1", "-o b.csv": b"2", "stdout": b"x", "exit status": b"0"}
    new = {"-o a.csv": b"9", "-o c.csv": b"2", "stdout": b"y", "exit status": b"0"}
    assert same_outputs.differences(old, new) == [
        "-o a.csv differs",
        "-o b.csv written by only one checkout",
        "-o c.csv written by only one checkout",
        "stdout differs",
    ]


def test_json_floats_counted_with_the_largest_relative_change():
    old = b'{"a": [0.5, 200.0, 0.0], "b": {"c": 3.0}, "n": 4}'
    new = b'{"a": [0.5, 200.1, -0.0], "b": {"c": 3.2}, "n": 4}'
    assert same_outputs.differences({"-o r.json": old}, {"-o r.json": new}) == [
        "-o r.json differs: 3 floats moved, largest |change|/max(1, |parent|) 6.7e-02 at b.c"]


@pytest.mark.parametrize("old,new,path", [
    (b'{"a": {"b": 1}}', b'{"a": {"b": 2}}', "a.b"),
    (b'{"a": [1.0]}', b'{"a": [1.0, 2.0]}', "a"),
    (b'{"a": 1}', b'{"a": 1.0}', "a"),
    (b'[1.0]', b'{}', "the top level"),
])
def test_json_difference_beyond_floats_located(old, new, path):
    assert same_outputs.json_change(old, new) == f"differs beyond its floats at {path}"
