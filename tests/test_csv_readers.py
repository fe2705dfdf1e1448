"""The CSV readers against reference per-row readers.

The readers read each file in one csv.reader row loop, each field through
its axis's table. The per_row_* functions below are the readers in an
earlier form: csv.reader row by row, one handle call per row and one
parser call per field, each parser a table of the writers' spellings with
float() and Axis.snap for any other. Every input, however it is mangled,
must read to an equal result or fail with the same ValueError text.
"""

import csv
import random
import tracemalloc
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pidlab import ParamSpace, PidConfig, RouthValidator, ground_truth
from pidlab.evalkit import (INVALID, VALID, ClassifiedGrid, configs_from_csv,
                            configs_to_csv, grid_from_csv, grid_to_csv)
from pidlab.search import (ALL_INVALID, ALL_VALID, BOUNDARY, BoundaryLine, ColumnRecord,
                           boundary_from_csv, boundary_to_csv, csv_number)

from test_evalkit import SPELLINGS, accepted_spaces, random_artifacts, strides_3


def per_row_read_csv(path, names, handle):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        at = {name: k for k, name in enumerate(header or ())}
        if not set(names) <= at.keys():
            raise ValueError(f"{path}: expected columns {sorted(names)}")
        pick = itemgetter(*(at[name] for name in names))
        width = len(header)
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                raise ValueError(f"{path}:{reader.line_num}: row has {len(row)} fields, "
                                 f"the header {width}")
            try:
                handle(*pick(row))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc


def per_field_parser(axis, stride=1):
    values = axis.values
    table = {csv_number(value): value for k, value in enumerate(values) if k % stride == 0}

    def parse(text):
        value = table.get(text)
        if value is None:
            k = axis.snap(float(text))
            if k % stride:
                raise ValueError(f"{axis.name}={text} is not on the sub-grid of stride "
                                 f"{stride}")
            value = values[k]
        return value

    return parse


def per_row_grid_from_csv(path, space, strides=(1, 1, 1)):
    parse_p, parse_i, parse_d = map(per_field_parser, space.axes, strides)
    labels = {}

    def cell(kp, ki, kd, label):
        if label not in (VALID, INVALID):
            raise ValueError(f"unknown label {label!r}")
        n = len(labels)
        labels[PidConfig(parse_p(kp), parse_i(ki), parse_d(kd))] = label
        if len(labels) == n:
            raise ValueError(f"cell kp={kp}, ki={ki}, kd={kd} is given twice")

    per_row_read_csv(path, ("kp", "ki", "kd", "label"), cell)
    return ClassifiedGrid(space=space, labels=labels, strides=tuple(strides))


def per_row_configs_from_csv(path, space):
    parse_p, parse_i, parse_d = map(per_field_parser, space.axes)
    configs = set()

    def config(kp, ki, kd):
        configs.add(PidConfig(parse_p(kp), parse_i(ki), parse_d(kd)))

    per_row_read_csv(path, ("kp", "ki", "kd"), config)
    return configs


def per_row_boundary_from_csv(path, space):
    parse_p, parse_i, parse_d = map(per_field_parser, space.axes)
    columns = []
    seen = set()

    def column(p, d, status, i_save):
        if status not in (BOUNDARY, ALL_VALID, ALL_INVALID):
            raise ValueError(f"unknown column status {status!r}")
        if status != BOUNDARY and i_save:
            raise ValueError(f"i_save must be empty on the {status} column p={p}, d={d}, "
                             f"got {i_save!r}")
        col = ColumnRecord(parse_p(p), parse_d(d), status,
                           parse_i(i_save) if status == BOUNDARY else None)
        if (col.p, col.d) in seen:
            raise ValueError(f"column p={p}, d={d} is given twice")
        seen.add((col.p, col.d))
        columns.append(col)

    per_row_read_csv(path, ("p", "d", "status", "i_save"), column)
    return BoundaryLine(space=space, columns=columns)


# per reader: its read and the per-row reference read, and the CSV columns that
# hold grid values and labels
READERS = {
    "grid": (grid_from_csv, per_row_grid_from_csv, ("kp", "ki", "kd"), "label"),
    "configs": (configs_from_csv, per_row_configs_from_csv, ("kp", "ki", "kd"), None),
    "boundary": (boundary_from_csv, per_row_boundary_from_csv, ("p", "i_save", "d"),
                 "status"),
}
LABELS = ["wobbly", "", "VALID", "val\nid", 'say "hi"', "a,b", VALID, INVALID, BOUNDARY,
          ALL_VALID, ALL_INVALID]


def outcome(read, path, space, *args):
    """What read gives for the CSV at path, comparable across readers: the
    repr of its result (repr tells -0.0 from 0.0), or its ValueError text."""
    try:
        result = read(path, space, *args)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(result, ClassifiedGrid):
        return "grid", repr(list(result.labels.items())), result.strides
    if isinstance(result, BoundaryLine):
        return "line", repr(result.columns)
    return "set", sorted(map(repr, result))


def written_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def off_value(axis, rng):
    """A field that names no value of axis."""
    return rng.choice([csv_number(axis.lo - axis.step),
                       csv_number(axis.values[-1] + axis.step),
                       csv_number(axis.lo + 0.5 * axis.step), "nan", "-inf", "1e999", "x",
                       ""])


def mangle(rows, space, reader, rng, mutations):
    """rows (header first) after mutations random edits to its data rows,
    each at a random row: a blank row, extra fields, a short row, another
    spelling, an unknown label or status, a value off the grid, a value
    that may be off the sub-grid, or a row given again, or a row with two
    or three of these faults."""
    header = rows[0]
    _, _, numeric, label = READERS[reader]
    axis_of = dict(zip(("kp", "ki", "kd", "p", "i_save", "d"), space.axes * 2))
    data = rows[1:]
    for _ in range(mutations):
        pos = rng.randrange(len(data) + 1)
        kind = rng.choice(["blank", "extra", "short", "respell", "label", "off", "sub",
                           "twice", "faults"])
        if kind == "blank" or not data:
            data.insert(pos, [])
            continue
        pos = min(pos, len(data) - 1)
        row = data[pos]
        if kind == "twice":
            data.insert(pos, list(data[rng.randrange(len(data))]))
        elif kind == "extra":
            row += rng.choice([["x"], [""], ["1", "valid"]])
        elif kind == "short" and len(row) > 1:
            del row[rng.randrange(1, len(row)):]
        elif kind in ("label", "faults") and label and len(row) == len(header):
            row[header.index(label)] = rng.choice(LABELS)
        if kind == "faults" and len(row) == len(header):
            # one more fault in the same row, or two: the row's first check wins
            for name in rng.sample(numeric, rng.randint(1, 2)):
                row[header.index(name)] = off_value(axis_of[name], rng)
        elif len(row) == len(header):
            name = rng.choice(numeric)
            at = header.index(name)
            # a spelling takes a number; an earlier edit may have left "x"
            # or "valid" here
            if kind == "respell" and row[at] and row[at][-1].isdigit():
                row[at] = rng.choice(list(SPELLINGS.values()))(row[at])
            elif kind == "off":
                row[at] = off_value(axis_of[name], rng)
            elif kind == "sub":
                values = axis_of[name].values
                row[at] = csv_number(values[rng.randrange(len(values))])
    return [header] + data


def serialize(rows, rng):
    """CSV text of rows with one kind of line end throughout, some fields
    quoted and the last line end sometimes left off."""
    end = rng.choice(["\n", "\r\n", "\r"])
    quote = rng.choice([0.0, 0.2])

    def field(text):
        if rng.random() < quote or any(c in text for c in ',"\r\n'):
            return '"' + text.replace('"', '""') + '"'
        return text

    text = end.join(",".join(map(field, row)) for row in rows)
    return text + (end if rng.random() < 0.8 else "")


def reorder(rows, rng):
    """rows with their columns in a random order."""
    order = list(range(len(rows[0])))
    rng.shuffle(order)
    return [[row[k] for k in order] for row in rows]


def same_reads(path, space, reader, strides=(1, 1, 1)):
    new, old, _, _ = READERS[reader]
    args = (strides,) if reader == "grid" else ()
    got, want = outcome(new, path, space, *args), outcome(old, path, space, *args)
    assert got == want
    return got


@st.composite
def plain_spaces(draw):
    """Grids of 2 to 5 points per axis: files of a few rows, in which
    mangle's edits often meet the first and last rows."""
    axes = []
    for _ in range(3):
        lo = draw(st.sampled_from([0.0, -0.5, 0.1, 1e4 + 0.3]))
        step = draw(st.sampled_from([0.1, 0.05, 0.3, 7.0]))
        axes += [lo, lo + draw(st.integers(1, 4)) * step, step]
    return ParamSpace(*axes)


class TestEachReaderAgainstItsPerRowReference:
    @settings(max_examples=400, deadline=None)
    @given(space=plain_spaces() | accepted_spaces(), strides=strides_3,
           seed=st.integers(0, 2**16), reader=st.sampled_from(list(READERS)),
           mutations=st.integers(0, 6))
    def test_mangled_csvs_read_alike(self, tmp_path_factory, space, strides, seed, reader,
                                     mutations):
        rng = random.Random(seed)
        if reader != "grid":
            strides = (1, 1, 1)
        grid, configs, line = random_artifacts(space, rng, strides)
        d = tmp_path_factory.mktemp("mangled")
        write, obj = {"grid": (grid_to_csv, grid), "configs": (configs_to_csv, configs),
                      "boundary": (boundary_to_csv, line)}[reader]
        write(obj, d / "w.csv")
        rows = written_rows(d / "w.csv")
        if rng.random() < 0.3:
            rows = reorder(rows, rng)
        rows = mangle(rows, space, reader, rng, mutations)
        (d / "m.csv").write_bytes(serialize(rows, rng).encode())
        same_reads(d / "m.csv", space, reader, strides)

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("row", [4095, 4096, 4097])
    @pytest.mark.parametrize("kind", ["short", "label", "off", "respell", "twice", "blank",
                                      "extra"])
    def test_an_edit_next_to_a_chunk_edge(self, tmp_path, reader, row, kind):
        # rows 4,095-4,097 lay at the edge of an earlier reader's 4,096-row
        # chunks, and still put an edit deep in a long file: a grid of
        # 11,160 cells and a boundary of 4,900 columns both reach past them
        if reader == "boundary":
            space = ParamSpace(0, 6.9, 0.1, 0.5, 1.0, 0.5, 0, 6.9, 0.1)
            columns = [ColumnRecord(kp, kd, BOUNDARY, 0.5) for kp in space.axes[0].values
                       for kd in space.axes[2].values]
            boundary_to_csv(BoundaryLine(space, columns), tmp_path / "w.csv")
        else:
            space = ParamSpace(0, 1, 0.5, 0.1, 12.0, 0.1, 0, 1.5, 0.05)
            grid = ground_truth(space, RouthValidator(1, 1))
            if reader == "grid":
                grid_to_csv(grid, tmp_path / "w.csv")
            else:
                configs_to_csv(grid.labels, tmp_path / "w.csv")
        rows = written_rows(tmp_path / "w.csv")
        header, data = rows[0], rows[1:]
        _, _, numeric, label = READERS[reader]
        edited = data[row]
        if kind == "short":
            del edited[-1]
        elif kind == "label":
            edited[header.index(label or "kd")] = "wobbly"
        elif kind == "off":
            edited[header.index(numeric[-1])] = "-1"
        elif kind == "respell":
            edited[header.index(numeric[-1])] = " " + edited[header.index(numeric[-1])]
        elif kind == "twice":
            data.insert(row, list(data[0]))
        elif kind == "blank":
            data.insert(row, [])
        else:
            edited.append("extra")
        (tmp_path / "m.csv").write_text(serialize([header] + data, random.Random(row)),
                                        newline="")
        got = same_reads(tmp_path / "m.csv", space, reader)
        assert (got[0] == "error") == (kind in ("short", "label", "off")
                                       or (kind == "twice" and reader != "configs"))


# routh_grid_3d's grid
ROUTH_GRID = ParamSpace(p_min=-0.5, p_max=4.0, p_step=0.5, i_min=0.1, i_max=12.0, i_step=0.1,
                        d_min=0.0, d_max=3.0, d_step=0.05)


class TestReadMemory:
    """grid_from_csv holds the fields of one row at a time. On
    routh_grid_3d's 73,200-cell grid, with the space's cells built, the
    traced peak of a read was measured at 1.35 MB above the 2.62 MB of
    labels it returns: the last resize of the labels dict, which holds its
    old table and the new one at once. The earlier reader of 4,096-row
    chunks measured 2.64 MB above them, and reading the whole file into
    columns first 25.2 MB."""

    def test_peak_above_the_labels_of_a_73200_cell_read(self, tmp_path):
        grid = ground_truth(ROUTH_GRID, RouthValidator(1.0, 1.0))
        path = tmp_path / "grid.csv"
        grid_to_csv(grid, path)
        grid_from_csv(path, ROUTH_GRID)  # a first call may allocate once-only caches
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = grid_from_csv(path, ROUTH_GRID)
        kept, peak = tracemalloc.get_traced_memory()
        if started:
            tracemalloc.stop()
        assert back.labels == grid.labels
        assert peak - kept <= 4.0e6
