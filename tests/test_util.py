import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lowmt.util import check_record, load_arrays, read_lines, save_arrays

ROOT = Path(__file__).resolve().parent.parent


class TestReadLines:
    @pytest.mark.parametrize("data, lineno", [
        (b"a \xff b\n", 1),
        (b"ok\r\nsecond\rthird\n\xe2\x80\xa8 x\na \xff b\n", 5),
        (b"ab\ncd\xe2\x80", 2),
    ], ids=["first", "after-crlf-cr-and-u2028", "cut-at-end"])
    def test_bad_utf8_names_file_and_line(self, tmp_path, data, lineno):
        path = tmp_path / "text.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=rf"text\.txt: line {lineno}: byte 0x"):
            list(read_lines(path))

    def test_bad_byte_past_the_first_block(self, tmp_path):
        path = tmp_path / "text.txt"
        path.write_bytes(b"word\n" * 5000 + b"\xc3(\n")
        with pytest.raises(ValueError, match=r"line 5001: byte 0xc3 is not UTF-8"):
            list(read_lines(path))


class TestCheckRecord:
    FIELDS = {"a": (True, lambda v: type(v) is int, "an integer"),
              "b": (False, lambda v: isinstance(v, str), "a string"),
              "c": (True, None, None)}

    @pytest.mark.parametrize("record, message", [
        ([1], "f: line 2: expected a JSON object"),
        ({"b": "x"}, "f: line 2: record lacks a, c"),
        ({"a": True, "c": 0}, "f: line 2: record key 'a' must be an integer, got True"),
        ({"a": 1, "b": None, "c": 0}, "f: line 2: record key 'b' must be a string, got None"),
        # A missing key is reported before a bad value seen first.
        ({"a": True}, "f: line 2: record lacks c"),
    ], ids=["not-an-object", "lacks", "bool-a", "null-b", "bad-a-lacks-c"])
    def test_names_where_and_the_fault(self, record, message):
        with pytest.raises(KeyError) as info:
            check_record(record, self.FIELDS, "f: line 2", KeyError)
        assert info.value.args == (message,)

    def test_passes_what_its_fields_allow(self):
        record = {"a": 1, "c": [None], "extra": {}}
        assert check_record(record, self.FIELDS, "f", ValueError) is record


def _python(code):
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def container(version, header):
    return b"TEST" + struct.pack("<II", version, len(header)) + header


class TestArrays:
    """The binary container of checkpoints and embedding files."""

    FIELDS = {"n": (True, lambda v: type(v) is int, "an integer")}

    @staticmethod
    def shapes(header):
        if header["n"] < 0:
            raise ValueError("n must be >= 0")
        return {"a": (header["n"], 2), "b": (3,)}

    def load(self, path):
        return load_arrays(path, b"TEST", 5, self.FIELDS, self.shapes, ValueError, "test")

    def test_layout_and_round_trip(self, tmp_path):
        path = tmp_path / "x.bin"
        a, b = np.arange(4.0).reshape(2, 2), np.array([1.5, -2.0, 3.0])
        save_arrays(path, b"TEST", 5, {"n": 2}, [a.T, b])  # a.T: not C order
        header = b'{"n": 2}'
        assert path.read_bytes() == (b"TEST" + struct.pack("<II", 5, len(header))
                                     + header + a.T.astype("<f8").tobytes()
                                     + b.astype("<f8").tobytes())
        loaded, arrays = self.load(path)
        assert loaded == {"n": 2} and list(arrays) == ["a", "b"]
        assert np.array_equal(arrays["a"], a.T) and np.array_equal(arrays["b"], b)

    @pytest.mark.parametrize("blob, message", [
        (b"TES", "not a test file"),
        (b"TEST\x05\0\0", "truncated at header"),
        (container(4, b"{}"), "unsupported test version 4"),
        (container(5, b"{}")[:-1], "truncated at config"),
        (container(5, b"[]"), "bad test config: expected a JSON object"),
        (container(5, b"{"), "bad test config: Expecting"),
        (container(5, b"{}"), "bad test config: record lacks n"),
        (container(5, b'{"n": -1}'), "bad test config: n must be >= 0"),
        # 8 * 10^15 bytes of arrays fail on size, before anything is allocated.
        (container(5, b'{"n": 500000000000000}'),
         "0 bytes of parameters do not match its config")])
    def test_bad_file_names_it(self, tmp_path, blob, message):
        path = tmp_path / "x.bin"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=f"x.bin: {message}"):
            self.load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array", ["a", "b"])
    def test_non_finite_value_names_the_file(self, tmp_path, value, array):
        path = tmp_path / "x.bin"
        arrays = {"a": np.zeros((2, 2)), "b": np.ones(3)}
        arrays[array].flat[-1] = value
        save_arrays(path, b"TEST", 5, {"n": 2}, arrays.values())
        with pytest.raises(ValueError, match="x.bin: non-finite test values$"):
            self.load(path)


class TestLazyNumpy:
    def test_import_leaves_numpy_unrun_until_used(self):
        out = _python("import sys\nfrom lowmt import cli, nmt\n"
                      "print('numpy._core' in sys.modules)\n"
                      "nmt.np.zeros(1)\nprint('numpy._core' in sys.modules)\n"
                      "import numpy\nprint(numpy is nmt.np)\n")
        assert out == ["False", "True", "True"]

    def test_version_without_running_numpy(self):
        import numpy
        out = _python("import sys\nfrom lowmt import util, analysis\n"
                      "print(util.numpy_version())\n"
                      "print('numpy._core' in sys.modules)\n")
        assert out == [numpy.__version__, "False"]


class TestLazyModule:
    def test_bound_on_its_package_like_an_import(self):
        out = _python("from lowmt import cli\nimport lowmt.nmt\n"
                      "print(lowmt.nmt is cli.nmt)\n")
        assert out == ["True"]
