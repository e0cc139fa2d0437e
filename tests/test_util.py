import os
import subprocess
import sys
from pathlib import Path

import pytest

from lowmt.util import read_lines

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


def _python(code):
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


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
