import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dantzig_adm import fileio

finite_elements = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)


class TestMatrixRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        a=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 8)),
            elements=finite_elements,
        )
    )
    def test_matrix_round_trip_is_bitwise(self, a, tmp_path_factory):
        path = tmp_path_factory.mktemp("mm") / "a.mtx"
        fileio.write_matrix(path, a)
        assert np.array_equal(fileio.read_matrix(path), a)

    @settings(max_examples=30, deadline=None)
    @given(v=hnp.arrays(np.float64, st.integers(1, 40), elements=finite_elements))
    def test_vector_round_trip_is_bitwise(self, v, tmp_path_factory):
        path = tmp_path_factory.mktemp("mm") / "v.mtx"
        fileio.write_vector(path, v)
        assert np.array_equal(fileio.read_vector(path), v)

    def test_vector_rejects_matrix_input(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_vector(tmp_path / "bad.mtx", np.zeros((2, 2)))

    def test_read_vector_rejects_wide_matrix(self, tmp_path):
        path = tmp_path / "wide.mtx"
        fileio.write_matrix(path, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            fileio.read_vector(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            fileio.read_matrix(tmp_path / "nope.mtx")

    @pytest.mark.parametrize("shape", [(0, 1), (0, 3), (0, 0)], ids=["0x1", "0x3", "0x0"])
    def test_a_file_with_no_rows_is_a_format_error(self, tmp_path, shape):
        # scipy's mmread dies of SIGFPE on such a file, so read it in a child process
        path = tmp_path / "empty.mtx"
        fileio.write_matrix(path, np.zeros(shape))
        script = (
            "import sys\n"
            "from dantzig_adm import fileio\n"
            "try:\n"
            "    fileio.read_matrix(sys.argv[1])\n"
            "except fileio.FileFormatError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(fileio.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == f"{path} holds a matrix with no rows\n"


class TestManifest:
    def test_round_trip_preserves_floats_exactly(self, tmp_path):
        path = tmp_path / "manifest.txt"
        delta = 0.039617578263880814
        fileio.write_manifest(path, {"n": 720, "delta": delta, "design": "unit_columns"})
        loaded = fileio.read_manifest(path)
        assert int(loaded["n"]) == 720
        assert float(loaded["delta"]) == delta
        assert loaded["design"] == "unit_columns"

    def test_blank_lines_and_comments_ignored(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("# header\n\nn = 3\n  # more\nname = x\n")
        assert fileio.read_manifest(path) == {"n": "3", "name": "x"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("just words\n")
        with pytest.raises(ValueError):
            fileio.read_manifest(path)
