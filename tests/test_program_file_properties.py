"""Property tests of the program file format: what write_program writes,
read_program gives back, and a corrupted file raises CompileError and nothing
else."""
import json
import re

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from polyshot.compile import ORDERS, CompileError, compile_poly, read_program, write_program
from polyshot.poly import Polynomial

# deterministic examples, so a tier-1 run is the same on every rerun; no
# explain phase, whose line tracing makes a failing run take minutes
PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

coefficient = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0, allow_nan=False))
coefficients = st.lists(coefficient, min_size=1, max_size=13).filter(any)
json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=6,
)
KEYS = ("order", "coeffs")


def _program_text(tmp_path, coeffs, order) -> str:
    path = tmp_path / "program.json"
    write_program(compile_poly(Polynomial(tuple(coeffs)), order), path)
    return path.read_text()


def _load_or_compile_error(tmp_path, text: str) -> None:
    """read_program either raises CompileError naming the file or loads a
    program that write_program writes back to a file read_program loads as
    the same program."""
    path = tmp_path / "program.json"
    path.write_text(text, errors="surrogateescape")
    try:
        program = read_program(path)
    except CompileError as exc:
        assert str(path) in str(exc)
        return
    write_program(program, path)
    assert read_program(path) == program


@PROPERTY
@given(coeffs=coefficients, order=st.sampled_from(ORDERS))
def test_write_then_read_gives_back_the_program(tmp_path, coeffs, order):
    program = compile_poly(Polynomial(tuple(coeffs)), order)
    path = tmp_path / "program.json"
    write_program(program, path)
    assert list(json.loads(path.read_text())) == list(KEYS)
    assert read_program(path) == program


@PROPERTY
@given(coeffs=coefficients, order=st.sampled_from(ORDERS), key=st.sampled_from(KEYS),
       value=json_value)
def test_a_replaced_value_loads_or_raises_compile_error(tmp_path, coeffs, order, key, value):
    data = json.loads(_program_text(tmp_path, coeffs, order))
    data[key] = value
    _load_or_compile_error(tmp_path, json.dumps(data))


@PROPERTY
@given(coeffs=coefficients, order=st.sampled_from(ORDERS), index=st.integers(0, 12),
       value=json_value)
def test_a_replaced_entry_loads_or_raises_compile_error(
    tmp_path, coeffs, order, index, value
):
    data = json.loads(_program_text(tmp_path, coeffs, order))
    data["coeffs"][index % len(data["coeffs"])] = value
    _load_or_compile_error(tmp_path, json.dumps(data))


@PROPERTY
@given(coeffs=coefficients, order=st.sampled_from(ORDERS), key=st.text(max_size=6),
       value=json_value)
def test_an_added_key_raises_compile_error_naming_it(tmp_path, coeffs, order, key, value):
    data = json.loads(_program_text(tmp_path, coeffs, order))
    if key in data:
        return
    data[key] = value
    path = tmp_path / "program.json"
    path.write_text(json.dumps(data))
    with pytest.raises(CompileError, match=re.escape(repr(key))) as exc:
        read_program(path)
    assert str(path) in str(exc.value)


@PROPERTY
@given(coeffs=coefficients, order=st.sampled_from(ORDERS), cut=st.floats(0.0, 1.0),
       key=st.sampled_from(KEYS))
def test_a_truncated_file_or_a_missing_key_raises_compile_error(tmp_path, coeffs, order, cut,
                                                                key):
    text = _program_text(tmp_path, coeffs, order)
    path = tmp_path / "program.json"
    # every cut before the closing brace leaves invalid JSON
    path.write_text(text[: int(cut * (len(text) - 2))])
    with pytest.raises(CompileError):
        read_program(path)
    data = json.loads(text)
    del data[key]
    path.write_text(json.dumps(data))
    with pytest.raises(CompileError, match=repr(key)):
        read_program(path)


@PROPERTY
@given(content=st.binary(max_size=64))
def test_arbitrary_bytes_load_or_raise_compile_error(tmp_path, content):
    _load_or_compile_error(tmp_path, content.decode("utf-8", errors="surrogateescape"))
