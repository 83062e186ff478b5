"""Generated tables, and mutated model and scaler files, through
``heartnet evaluate``, in-process: each one is scored (exit 0) or refused
as a data error that names the bad file (exit 3), and none ends in a
traceback.  Generated tables also go through ``heartnet train`` and
``heartnet experiment``, which train on them (exit 0), refuse them
(exit 3) or stop on a divergence (exit 4)."""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartnet import cli
from heartnet.cli import EXIT_DATA, EXIT_DIVERGENCE, EXIT_OK
from heartnet.data import (
    HEART_SCHEMA,
    bundled_fixture_path,
    encode_labels,
    fit_scaler,
    impute,
    load_dataset,
    save_scaler,
)
from heartnet.network import new_network, save_network
from heartnet.trainer import TrainConfig, train

FEATURES = ["0", "1", "3", "63", "-1", "+2", "2.3", "1e3", "0.5"]
LABELS = ["0", "1", "2", "3", "4"]  # 4 is clamped to 3, with a warning
# pieces an odd cell is built from: numbers, the missing-cell mark, words
# np.loadtxt reads as floats, a stray "\r", and nothing at all
PIECES = [*FEATURES, "?", "-?", "nan", "inf", "\r", "", " ", "x"]
HEADER = ",".join([*(column.name for column in HEART_SCHEMA), "class"])

plain_rows = st.tuples(
    st.lists(st.sampled_from(FEATURES), min_size=13, max_size=13), st.sampled_from(LABELS)
).map(lambda row: [*row[0], row[1]])
odd_cells = st.tuples(
    st.sampled_from(["", "\x1f"]), st.lists(st.sampled_from(PIECES), min_size=1, max_size=3)
).map(lambda cell: cell[0] + "".join(cell[1]) + cell[0])
one_in_four = st.sampled_from([False, False, False, True])


@st.composite
def table_bytes(draw):
    """A table's bytes: 0-5 rows of 14 plain cells, up to 3 of them made
    missing, replaced by an odd cell, dropped, or followed by one more;
    all cells maybe padded with "\x1f"; "\n" or "\r\n" line ends; and
    maybe a header row, a byte-order mark, or a byte that is not UTF-8."""
    rows = draw(st.lists(plain_rows, max_size=5))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        at = draw(st.integers(0, len(row) - 1))
        change = draw(st.sampled_from(["missing", "odd", "odd", "odd", "drop", "add"]))
        if change == "missing":
            row[at] = "?"
        elif change == "odd":
            row[at] = draw(odd_cells)
        elif change == "drop":
            del row[at]
        else:
            row.insert(at, draw(odd_cells))
    pad = draw(st.sampled_from(["", "\x1f"]))
    lines = [",".join(pad + cell + pad for cell in row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, HEADER)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    data = "".join(line + end for line in lines).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(one_in_four):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 13-8-2 model trained for 2 epochs on the bundled fixture, its
    scaler, and the path each example writes its table to."""
    folder = tmp_path_factory.mktemp("evaluate")
    dataset = impute(load_dataset(bundled_fixture_path()))
    scaler = fit_scaler(dataset)
    network = new_network((13, 8, 2), 0)
    x, t = scaler.transform(dataset.features), encode_labels(dataset.labels)
    train(network, x, t, TrainConfig(max_epochs=2))
    save_network(network, folder / "model.json")
    save_scaler(scaler, folder / "scaler.json")
    return folder / "model.json", folder / "scaler.json", folder / "table.csv"


def run(argv):
    """``heartnet`` in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def evaluate(data, model, scaler):
    return run(["evaluate", "--data", data, "--model", model, "--scaler", scaler])


class TestEvaluateOnGeneratedTables:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=table_bytes())
    def test_scored_or_refused_naming_the_table(self, files, data):
        model, scaler, table = files
        table.write_bytes(data)
        code, out, err = evaluate(table, model, scaler)
        assert code in (EXIT_OK, EXIT_DATA)
        if code == EXIT_DATA:
            assert err.splitlines()[-1].startswith(f"data error: {table}:")
        else:
            assert out.startswith("samples: ")


class TestTrainOnGeneratedTables:
    """ROADMAP item 13's train and experiment slice.  A 5-row table fits
    the default grid to training sets of 3, 3, 2 and 1 rows, so
    ``experiment`` steps stacks of tied, tiny blocks."""

    @pytest.fixture(scope="class")
    def folder(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("train")
        (folder / "config.json").write_text('{"max_epochs": 2}', encoding="utf-8")
        return folder

    @pytest.mark.parametrize("command", ["train", "experiment"])
    def test_trained_or_refused_naming_the_table(self, folder, command):
        runs = itertools.count()

        @settings(max_examples=80, deadline=None, derandomize=True)
        @given(data=table_bytes())
        def check(data):
            table = folder / "table.csv"
            table.write_bytes(data)
            out_dir = folder / f"{command}{next(runs)}"
            code, _, err = run(
                [command, "--config", folder / "config.json", "--data", table, "--out", out_dir]
            )
            assert code in (EXIT_OK, EXIT_DATA, EXIT_DIVERGENCE)
            if code == EXIT_DATA:
                assert err.splitlines()[-1].startswith(f"data error: {table}:")

        check()


# what a mutation puts in place of one value; DELETE drops its key or element.
# A max of 5e-324 over a min of 0 is a span too small to scale by.
DELETE = object()
REPLACEMENTS = [
    None, True, 0, -1, 1.5, -0.0, 1e308, 5e-324, 10**400, "", "1", [], [[None]], {}, DELETE,
]


def value_paths(value, prefix=()):
    """The path (keys and indices from the top) of every value nested in
    ``value``, ``value`` itself excluded."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from value_paths(child, prefix + (key,))


class TestEvaluateOnMutatedArtifacts:
    """ROADMAP item 13's model and scaler slice: one value of the trained
    ``model.json`` or ``scaler.json`` replaced or deleted."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_scored_or_refused_naming_the_file(self, files, data):
        model, scaler, _ = files
        which = data.draw(st.sampled_from([model, scaler]))
        document = json.loads(which.read_text(encoding="utf-8"))
        *parents, key = data.draw(st.sampled_from(list(value_paths(document))))
        holder = document
        for parent in parents:
            holder = holder[parent]
        replacement = data.draw(st.sampled_from(REPLACEMENTS))
        if replacement is DELETE:
            del holder[key]
        else:
            holder[key] = replacement
        mutant = which.with_name("mutant-" + which.name)
        mutant.write_text(json.dumps(document), encoding="utf-8")
        args = (mutant, scaler) if which == model else (model, mutant)
        code, out, err = evaluate(bundled_fixture_path(), *args)
        assert code in (EXIT_OK, EXIT_DATA)
        if code == EXIT_DATA:
            last = err.splitlines()[-1]
            assert last.startswith("data error:") and str(mutant) in last
        else:
            assert out.startswith("samples: ")
