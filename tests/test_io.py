"""Property tests of the CSV formats: bitwise round trips and fuzzes over damaged and
edited input files."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import OVERFLOW_LIFTS
from rdeinv.cli import main
from rdeinv.errors import DimensionMismatch, InvalidParameter, RdeinvError
from rdeinv.io import _BLOCK, numbered, read_table, write_table
from rdeinv.rde import ObservationSet, Trajectory, read_trajectory_csv, write_trajectory_csv
from rdeinv.reconstruct import read_observations_csv, write_observations_csv
from rdeinv.roughpath import (
    GridRoughPath,
    area_matrix,
    lift_piecewise_linear,
    read_path_csv,
    write_path_csv,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

finite = st.floats(allow_nan=False, allow_infinity=False)
# areas are antisymmetrized on construction, which doubles them first
areas = st.floats(min_value=-1e300, max_value=1e300)


def matrix(draw, rows, cols, elements=finite):
    cells = draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=float).reshape(rows, cols)


def strictly_increasing(draw, n):
    return np.array(sorted(draw(st.lists(finite, min_size=n, max_size=n, unique=True))))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def grid_paths(draw):
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    comps = matrix(draw, n, ell * (ell - 1) // 2, areas)
    return GridRoughPath(
        strictly_increasing(draw, n + 1), matrix(draw, n + 1, ell), area_matrix(comps, ell)
    )


@PROPERTY
@given(grid_paths())
def test_path_csv_roundtrip_bitwise(path):
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "path.csv"
        write_path_csv(path, file)
        back = read_path_csv(file)
    for attr in ("times", "values", "step_areas"):
        assert same_bits(getattr(back, attr), getattr(path, attr)), attr


@PROPERTY
@given(st.data())
def test_path_csv_without_areas_is_the_linear_lift(data):
    ell = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 5))
    times = strictly_increasing(data.draw, n + 1)
    values = matrix(data.draw, n + 1, ell)
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "plain.csv"
        write_table(file, ["t"] + numbered("X", ell), np.column_stack([times, values]))
        back = read_path_csv(file)
    want = lift_piecewise_linear(times, values)
    for attr in ("times", "values", "step_areas"):
        assert same_bits(getattr(back, attr), getattr(want, attr)), attr


@PROPERTY
@given(st.data())
def test_trajectory_csv_roundtrip_bitwise(data):
    n = data.draw(st.integers(1, 6))
    d = data.draw(st.integers(1, 4))
    traj = Trajectory(matrix(data.draw, n, 1)[:, 0], matrix(data.draw, n, d))
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "traj.csv"
        write_trajectory_csv(traj, file)
        back = read_trajectory_csv(file)
    assert same_bits(back.times, traj.times) and same_bits(back.states, traj.states)


@PROPERTY
@given(st.data())
def test_observation_csv_roundtrip_bitwise(data):
    c = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 4))
    base = matrix(data.draw, c, d)
    starts = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=k, max_size=k, unique=True))
    obs = [
        ObservationSet(base, s, s + data.draw(st.floats(1e-3, 1e3)), matrix(data.draw, c, d))
        for s in starts
    ]
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "obs.csv"
        write_observations_csv(obs, file)
        back = read_observations_csv(file)
    want = sorted(obs, key=lambda o: o.s)
    assert [(o.s, o.t) for o in back] == [(o.s, o.t) for o in want]
    for a, b in zip(back, want):
        assert same_bits(a.base_points, b.base_points) and same_bits(a.observed, b.observed)


def test_repeated_interval_is_rejected_before_the_file_opens(tmp_path):
    # the reader takes one block per interval, so the writer refuses what it could not read
    obs = ObservationSet(np.zeros((1, 2)), 0.0, 0.5, np.ones((1, 2)))
    file = tmp_path / "obs.csv"
    with pytest.raises(InvalidParameter, match="repeated"):
        write_observations_csv([obs, obs], file)
    assert not file.exists()


def test_base_points_of_another_width_are_rejected_before_the_file_opens(tmp_path):
    # one header names one state dimension, so sets of two widths cannot share a file
    sets = [ObservationSet(np.zeros((1, 2)), 0.0, 0.5, np.ones((1, 2))),
            ObservationSet(np.zeros((2, 3)), 0.5, 1.0, np.ones((2, 3)))]
    file = tmp_path / "obs.csv"
    file.write_text("kept\n")
    with pytest.raises(DimensionMismatch, match="width 3 after 2"):
        write_observations_csv(sets, file)
    assert file.read_text() == "kept\n"


@pytest.mark.parametrize(
    "header, data",
    [(["a", "b"], np.ones((3, 3))), (["a"], np.ones((3, 3))), (["a", "b"], np.ones(2)),
     (["a", "b"], np.ones((2, 2, 2))), (["a", "b", "c"], [[1.0, 2.0]]),
     (["a", "b"], [[1.0, 2.0], [3.0]]), (["a", "b"], [[1.0, 2.0], [3.0, [4.0]]])],
    ids=["wider", "one_column", "one_dimensional", "three_dimensional", "narrower", "ragged",
         "ragged_below_the_rows"],
)
def test_write_table_rejects_another_width_before_the_file_opens(tmp_path, header, data):
    file = tmp_path / "table.csv"
    file.write_text("kept\n")
    with pytest.raises(DimensionMismatch, match=f"{len(header)} column names"):
        write_table(file, header, data)
    assert file.read_text() == "kept\n"


def test_write_table_of_no_rows_writes_the_header(tmp_path):
    # any empty body is no rows, whatever its shape, as before the width check
    for data in ([], np.ones((0, 3)), np.ones((0, 1))):
        file = tmp_path / "table.csv"
        write_table(file, ["a", "b"], data)
        assert file.read_text() == "a,b\n"


# ---------------------------------------------------------------------------
# the table syntax: bulk formatting and parsing against row-by-row references

# -0.0, the smallest subnormal and normal, the largest finite magnitudes, and integers
table_cells = st.one_of(
    finite,
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308]),
    st.integers(-(2**63), 2**63).map(float),
)


@PROPERTY
@given(st.data())
def test_write_table_bytes_equal_per_row_formatting(data):
    rows = data.draw(st.integers(0, 6))
    cols = data.draw(st.integers(1, 4))
    values = matrix(data.draw, rows, cols, table_cells)
    header = numbered("c", cols)
    want = ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in values.tolist()
    )
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "table.csv"
        write_table(file, header, values)
        assert file.read_bytes() == want.encode()
        if rows:
            back_header, back = read_table(file)
            assert back_header == header and same_bits(back, values)


def line_by_line_error(file):
    """The message of a row-by-row read of a damaged table: the first line with a wrong cell
    count, an unparsable cell or a non-finite cell, in file order."""
    lines = Path(file).read_text().splitlines()
    header = lines[0].split(",")
    for r, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            return f"{file}:{r + 2}: {len(cells)} cells, the header has {len(header)}"
        try:
            row = [float(cell) for cell in cells]
        except ValueError as exc:
            return f"{file}:{r + 2}: {exc}"
        for col, v in enumerate(row):
            if not np.isfinite(v):
                return f"{file}:{r + 2}: non-finite value in column {header[col]!r}"
    return None


def good_rows(n):
    return "".join(f"{k},{k}\n" for k in range(n))


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("0,1\n1,2,3\n2,3\n", 3, "3 cells, the header has 2"),
        ("0,1\n1,2\n2,x\n", 4, "could not convert string to float: 'x'"),
        ("0,1\n1,2,\n", 3, "3 cells, the header has 2"),
        ("0,1\n\n2,3\n", 3, "1 cells, the header has 2"),
        ("0,1\n1,inf\n2,3\n", 3, "non-finite value in column 'X1'"),
        ("0,1\n1,2e\n2,3,4\n", 3, "could not convert string to float: '2e'"),
        ("0,1\n1,2\n2,3,4\n3,x\n", 4, "3 cells, the header has 2"),
        ("0,1\n1,2,3\n4\n", 3, "3 cells, the header has 2"),
        ("0,1\n1,inf\n2,x\n", 3, "non-finite value in column 'X1'"),
        # rows are read _BLOCK at a time: the last row of the first block, and later blocks
        (good_rows(_BLOCK - 1) + "1,x\n" + good_rows(3), _BLOCK + 1,
         "could not convert string to float: 'x'"),
        (good_rows(_BLOCK) + "1,x\n" + good_rows(3), _BLOCK + 2,
         "could not convert string to float: 'x'"),
        (good_rows(2 * _BLOCK + 5) + "1,inf\n", 2 * _BLOCK + 7, "non-finite value in column 'X1'"),
        (good_rows(_BLOCK + 5) + "1,2,3\n4\n", _BLOCK + 7, "3 cells, the header has 2"),
    ],
    ids=["cell_count", "unparsable", "trailing_comma", "blank_middle_line", "non_finite",
         "bad_cell_above_wrong_count", "wrong_count_above_bad_cell", "counts_that_balance",
         "non_finite_above_bad_cell", "last_row_of_a_block", "first_row_of_a_block",
         "non_finite_in_a_later_block", "cell_count_in_a_later_block"],
)
def test_read_table_names_the_first_bad_line(tmp_path, body, line, message):
    file = tmp_path / "bad.csv"
    file.write_text("t,X1\n" + body)
    want = f"{file}:{line}: {message}"
    assert line_by_line_error(file) == want
    with pytest.raises(InvalidParameter) as err:
        read_table(file)
    assert str(err.value) == want


def test_read_table_blank_middle_line_of_one_column(tmp_path):
    file = tmp_path / "bad.csv"
    file.write_text("t\n0\n\n1\n")
    with pytest.raises(InvalidParameter) as err:
        read_table(file)
    assert str(err.value) == line_by_line_error(file) == f"{file}:3: could not convert string to float: ''"


def test_table_longer_than_a_block_round_trips_bitwise(tmp_path):
    # rows are written and read _BLOCK at a time; the bytes and bits are those of one pass
    values = np.random.default_rng(5).standard_normal((2 * _BLOCK + 3, 3)) * [1e-300, 1.0, 1e300]
    header, file = numbered("c", 3), tmp_path / "long.csv"
    write_table(file, header, values)
    want = ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in values.tolist()
    )
    assert file.read_bytes() == want.encode()
    back_header, back = read_table(file)
    assert back_header == header and same_bits(back, values)


def test_a_file_that_is_not_text_is_reported_before_its_first_bad_line(tmp_path):
    # the bad cell is in the first block, the undecodable byte blocks later
    file = tmp_path / "bad.csv"
    file.write_bytes(b"t,X1\n0,x\n" + good_rows(3 * _BLOCK).encode() + b"1,\xff\n")
    with pytest.raises(InvalidParameter, match=f"^{file}: not a text file"):
        read_table(file)


# ---------------------------------------------------------------------------
# fuzz: damaged files must give a documented exit code, never an exception

OBS_INTERVALS = "0,0.78539816339744828;0.78539816339744828,1.5707963267948966"


def assert_exit_contract(argv):
    """Run argv in-process and return its exit code: an exception is the traceback the
    CLI must never show.  Exit 0 prints only notes on stderr; 1 and 2 print one error
    JSON line; 64 prints nothing on stdout and exactly one `usage error:` line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue().splitlines()
    if code == 64:
        assert out == "" and len(err) == 1 and err[0].startswith("usage error:"), (argv, err)
        return code
    assert all(line.startswith("note:") for line in err), (argv, code, err)
    if code in (1, 2):
        [line] = out.splitlines()
        assert set(json.loads(line)["error"]) == {"type", "message"}, (argv, out)
    else:
        assert code == 0, (argv, code)
    return code


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("valid")
    path, obs = tmp / "path.csv", tmp / "obs.csv"
    assert main(["lift", "--driver", "circle", "--n", "8", "--out", str(path)]) == 0
    assert main(["observe", "--system", "rolling_ball", "--path", str(path),
                 "--points", "1,0,0,0,1,0,0,0,1;0,1,0,-1,0,0,0,0,1",
                 "--intervals", OBS_INTERVALS, "--n-internal", "1", "--n-sub", "1",
                 "--out", str(obs)]) == 0
    return {"path": path.read_text(), "obs": obs.read_text()}


@st.composite
def damage(draw, text):
    """Truncate the text, replace one character, or drop one line."""
    how = draw(st.sampled_from(["truncate", "garble", "drop"]))
    if how == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if how == "garble":
        k = draw(st.integers(0, len(text) - 1))
        return text[:k] + draw(st.sampled_from(list("0159-+.,eEx \n;"))) + text[k + 1 :]
    lines = text.splitlines(keepends=True)
    k = draw(st.integers(0, len(lines) - 1))
    return "".join(lines[:k] + lines[k + 1 :])


def commands(kind, file, out):
    if kind == "path":
        return [
            ["solve", "--system", "unicycle", "--path", file, "--method", "euler2",
             "--out", f"{out}/traj.csv"],
            ["observe", "--system", "rolling_ball", "--path", file, "--intervals",
             OBS_INTERVALS, "--n-internal", "1", "--n-sub", "1", "--out", f"{out}/obs.csv"],
        ]
    return [["reconstruct", "--system", "rolling_ball", "--obs", file, "--out-dir", f"{out}/rec"]]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data())
def test_damaged_files_exit_with_documented_codes(valid_files, data):
    kind = data.draw(st.sampled_from(sorted(valid_files)))
    text = data.draw(damage(valid_files[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / f"{kind}.csv"
        file.write_text(text)
        for argv in commands(kind, str(file), tmp):
            assert_exit_contract(argv)


# ---------------------------------------------------------------------------
# fuzz: structured edits of every input file, fed to every command that reads it

# a cell's new text, a cell's scale factor, and a header cell's or key's new name
CELLS = ["0", "1e308", "-1e308", "1e-320", "nan", "inf", "-inf"]
SCALES = [-1.0, 0.5, 2.0, 1e300, 1e-300]
NAMES = ["t", "X1", "X2", "X3", "A12", "A13", "A21", "x1", "x3", "s", "point_id", "y1", "z9",
         "kind", "file", "n", "n_sub", "levels", "Q"]

CONFIG = """[experiment]
system = rolling_ball
method = taylor
[driver]
kind = file
file = {path}
[points]
points = 1,0,0,0,1,0,0,0,1
[schedule]
s = 0
t = 1
n = 2
[solver]
n_internal = 1
n_sub = 1
"""

QUARTERS = "0,0.25;0.25,0.5;0.5,0.75;0.75,1"

index = st.integers(0, 99)
edits = st.lists(
    st.one_of(
        st.tuples(st.just("drop"), index),
        st.tuples(st.just("repeat"), index),
        st.tuples(st.just("swap"), index, index),
        st.tuples(st.just("rename"), index, st.sampled_from(NAMES)),
        st.tuples(st.just("cell"), index, index, st.sampled_from(CELLS)),
        st.tuples(st.just("scale"), index, index, st.sampled_from(SCALES)),
    ),
    min_size=1,
    max_size=3,
)


def edited(text, kind, edit_list):
    """text after each edit, with every index taken modulo what it indexes.

    Rows are a CSV's data lines or every line of the INI; header cells are a
    CSV's column names or the INI's keys; a cell is one comma-separated part
    of a CSV data line or of an INI value.
    """
    lines = text.splitlines()
    for op, k, *rest in edit_list:
        rows = list(range(0 if kind == "ini" else 1, len(lines)))
        keyed = [r for r in rows if "=" in lines[r]] if kind == "ini" else rows
        if op in ("drop", "repeat", "swap") and rows:
            r = rows[k % len(rows)]
            if op == "drop":
                del lines[r]
            elif op == "repeat":
                lines.insert(r, lines[r])
            else:
                q = rows[rest[0] % len(rows)]
                lines[r], lines[q] = lines[q], lines[r]
        elif op == "rename" and kind != "ini":
            cells = lines[0].split(",")
            cells[k % len(cells)] = rest[0]
            lines[0] = ",".join(cells)
        elif op == "rename" and keyed:
            r = keyed[k % len(keyed)]
            lines[r] = rest[0] + " =" + lines[r].partition("=")[2]
        elif op in ("cell", "scale") and keyed:
            r = keyed[k % len(keyed)]
            head, sep, body = lines[r].partition("=") if kind == "ini" else ("", "", lines[r])
            cells = body.split(",")
            c = rest[0] % len(cells)
            if op == "cell":
                cells[c] = rest[1]
            else:
                try:
                    cells[c] = "%.17g" % (float(cells[c]) * rest[1])
                except ValueError:  # a word such as the system name
                    continue
            lines[r] = head + sep + ",".join(cells)
    return "\n".join(lines) + "\n"


def csv_commands(file, tmp):
    """Every command that reads a CSV, reading `file` where it takes a path or observations."""
    return [
        ["solve", "--system", "unicycle", "--path", file, "--method", "euler2",
         "--out", f"{tmp}/traj.csv"],
        ["solve", "--system", "unicycle", "--path", file, "--method", "logode", "--n-sub", "2",
         "--out", f"{tmp}/traj.csv"],
        ["observe", "--system", "rolling_ball", "--path", file, "--intervals", QUARTERS,
         "--n-sub", "1", "--out", f"{tmp}/obs.csv"],
        ["lift", "--driver", "file", "--samples", file, "--out", f"{tmp}/lifted.csv"],
        ["reconstruct", "--system", "rolling_ball", "--obs", file, "--out-dir", f"{tmp}/rec"],
        ["reconstruct", "--system", "rolling_ball", "--set", "driver.kind=file", "--set",
         f"driver.file={file}", "--set", "schedule.n=2", "--set", "solver.n_sub=1",
         "--out-dir", f"{tmp}/sim"],
    ]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A valid path (ell = 2, with areas), trajectory, observation file and INI config."""
    tmp = tmp_path_factory.mktemp("inputs")
    path, traj, obs = tmp / "path.csv", tmp / "traj.csv", tmp / "obs.csv"
    assert main(["lift", "--driver", "brownian", "--n-coarse", "8", "--n-fine", "2",
                 "--out", str(path)]) == 0
    assert main(["solve", "--system", "unicycle", "--path", str(path), "--method", "euler2",
                 "--out", str(traj)]) == 0
    assert main(["observe", "--system", "rolling_ball", "--path", str(path), "--intervals",
                 QUARTERS, "--n-sub", "1", "--out", str(obs)]) == 0
    files = {kind: file.read_text() for kind, file in
             [("path", path), ("traj", traj), ("obs", obs)]}
    return {**files, "ini": CONFIG.format(path=path)}


@settings(derandomize=True, deadline=None, max_examples=100)
@given(kind=st.sampled_from(["path", "traj", "obs", "ini"]), edit_list=edits)
@example(kind="brownian_areas", edit_list=[])
@example(kind="linear_areas", edit_list=[])
@example(kind="linear_values", edit_list=[])
# a path whose area A12 = -1e308 overflows when antisymmetrized
@example(kind="path", edit_list=[("cell", 5, 3, "-1e308")])
def test_edited_inputs_keep_the_exit_contract(valid_inputs, kind, edit_list):
    with tempfile.TemporaryDirectory() as tmp:
        if kind in OVERFLOW_LIFTS:
            argvs = [OVERFLOW_LIFTS[kind] + ["--out", f"{tmp}/path.csv"]]
        else:
            file = Path(tmp) / f"input.{'ini' if kind == 'ini' else 'csv'}"
            file.write_text(edited(valid_inputs[kind], kind, edit_list))
            if kind == "ini":
                argvs = [["reconstruct", "--config", str(file), "--out-dir", f"{tmp}/rec"]]
            else:
                argvs = csv_commands(str(file), tmp)
            if kind == "traj":  # a reader that no command calls
                with suppress(RdeinvError):
                    read_trajectory_csv(file)
        for argv in argvs:
            assert_exit_contract(argv)



# ---------------------------------------------------------------------------
# every count key, as a flag and as a --set override, given each bad value

BAD_COUNTS = ["0", "-1", "1.5", "nan", ""]
# sizes beyond any address space, which numpy refuses at once
HUGE_COUNTS = ["1000000000000000", "100000000000000000000"]
RECONSTRUCT, CONVERGENCE = ["--out-dir", "{tmp}/out"], ["--out", "{tmp}/c.csv"]
OBSERVE = ["observe", "--system", "rolling_ball", "--path", "{tmp}/p.csv", "--intervals", "0,1",
           "--out", "{tmp}/o.csv"]
# command lines that read a count key, {v} its value: these also take HUGE_COUNTS, being
# refused before any work grows with the size
SIZE_ARGVS = [
    ["lift", "--driver", "circle", "--n", "{v}", "--out", "{tmp}/p.csv"],
    ["lift", "--driver", "brownian", "--ell", "{v}", "--out", "{tmp}/p.csv"],
    ["lift", "--driver", "brownian", "--n-coarse", "{v}", "--out", "{tmp}/p.csv"],
    ["lift", "--driver", "brownian", "--n-fine", "{v}", "--out", "{tmp}/p.csv"],
    ["search-points", "--system", "unicycle", "--n-trials", "{v}", "--out", "{tmp}/s.json"],
    ["reconstruct", "--set", "driver.n={v}", *RECONSTRUCT],
    ["reconstruct", "--set", "driver.kind=brownian", "--set", "driver.ell={v}", *RECONSTRUCT],
    ["reconstruct", "--set", "driver.kind=brownian", "--set", "driver.n_coarse={v}",
     *RECONSTRUCT],
    ["reconstruct", "--set", "driver.kind=brownian", "--set", "driver.n_fine={v}", *RECONSTRUCT],
    ["reconstruct", "--set", "driver.n_seeds={v}", *RECONSTRUCT],
    ["reconstruct", "--set", "points.mode=search", "--set", "points.n_trials={v}", *RECONSTRUCT],
    ["reconstruct", "--set", "schedule.n={v}", *RECONSTRUCT],
    ["convergence", "--set", "schedule.levels={v}", *CONVERGENCE],
    # substep counts, seeds and point counts have a ceiling
    ["solve", "--system", "unicycle", "--path", "{tmp}/p.csv", "--n-sub", "{v}",
     "--out", "{tmp}/t.csv"],
    OBSERVE + ["--n-sub", "{v}"],
    OBSERVE + ["--n-internal", "{v}"],
    ["reconstruct", "--set", "solver.n_sub={v}", *RECONSTRUCT],
    ["reconstruct", "--set", "solver.n_internal={v}", *RECONSTRUCT],
    ["convergence", "--set", "driver.n_seeds={v}", *CONVERGENCE],
    ["convergence", "--set", "driver.kind=brownian", "--set", "driver.n_seeds={v}", *CONVERGENCE],
    ["search-points", "--system", "unicycle", "--c-max", "{v}", "--out", "{tmp}/s.json"],
    ["reconstruct", "--set", "points.mode=search", "--set", "points.c_max={v}", *RECONSTRUCT],
]


def _count_id(argv):
    k = next(k for k, arg in enumerate(argv) if "{v}" in arg)
    name = f"{argv[0]} {argv[k - 1] if argv[k] == '{v}' else argv[k].split('=')[0]}"
    # convergence's seeds, read with the default driver and with the seeded one
    return name + (" brownian" if argv[0] == "convergence" and "driver.kind=brownian" in argv
                   else "")


@pytest.mark.parametrize("argv", SIZE_ARGVS, ids=_count_id)
def test_bad_counts_keep_the_exit_contract(argv):
    for value in BAD_COUNTS + HUGE_COUNTS:
        with tempfile.TemporaryDirectory() as tmp:
            assert assert_exit_contract([arg.format(v=value, tmp=tmp) for arg in argv]) == 64
            assert list(Path(tmp).iterdir()) == [], (argv, value)
