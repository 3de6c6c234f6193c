"""Every output file goes through harness's writers, which write csv's bytes."""

import ast
import csv
import io
from pathlib import Path

import pytest

from lossprio import harness
from lossprio.datasets import CORRUPTION_KINDS
from lossprio.prioritizers import PrioritizerConfig

SRC = Path(harness.__file__).resolve().parent

# The only functions that may create a directory or open a file for writing.
WRITERS = {"harness": {"write_text"}, "cli": {"_start_output"}, "model": {"save_checkpoint"}}
WRITING_METHODS = {"write_text", "write_bytes", "mkdir", "makedirs", "savez"}


def _writes(module: str, source: str) -> list[str]:
    """Each place in source that imports csv, or creates a directory or opens
    a file for writing outside the module's WRITERS."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            name = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name if where is None else f"{where}.{child.name}"
            elif isinstance(child, ast.Import) and any(a.name == "csv" for a in child.names):
                found.append(f"{module}:{child.lineno} import csv")
            elif isinstance(child, ast.ImportFrom) and child.module == "csv":
                found.append(f"{module}:{child.lineno} import csv")
            elif isinstance(child, ast.Call) and name not in WRITERS.get(module, ()):
                func = child.func
                if isinstance(func, ast.Attribute) and func.attr in WRITING_METHODS:
                    found.append(f"{module}:{child.lineno} {name}: .{func.attr}(")
                elif getattr(func, "attr", getattr(func, "id", None)) == "open":
                    # open(file, mode) or path.open(mode)
                    args = child.args[1:] if isinstance(func, ast.Name) else child.args
                    modes = args[:1] + [k.value for k in child.keywords if k.arg == "mode"]
                    if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                           for m in modes):
                        found.append(f"{module}:{child.lineno} {name}: write-mode open(")
            visit(child, name)

    visit(ast.parse(source), None)
    return found


def test_every_output_file_goes_through_the_writers():
    found = [w for path in sorted(SRC.glob("*.py")) for w in _writes(path.stem, path.read_text())]
    assert found == []


@pytest.mark.parametrize("module, source, caught", [
    ("datasets", "import csv", True),
    ("datasets", "from csv import writer", True),
    ("cli", "def f(p):\n    open(p, 'w', newline='')", True),
    ("cli", "def f(p):\n    open(p, mode='a')", True),
    ("cli", "def f(p, mode):\n    p.open(mode)", True),
    ("cli", "def f(p):\n    p.write_text('x')", True),
    ("cli", "def f(p):\n    write_text(p, 'x')", False),
    ("harness", "class A:\n    def f(self, p):\n        p.mkdir()", True),
    ("cli", "def f(p):\n    return open(p), open(p, 'rb'), p.open()", False),
    ("harness", "def write_text(p):\n    p.parent.mkdir()\n    p.write_text('x')", False),
    ("cli", "def _start_output(p):\n    p.mkdir()", False),
    ("model", "def save_checkpoint(p, a):\n    p.parent.mkdir()\n    np.savez(p, a=a)", False),
    ("model", "def save(p, a):\n    np.savez(p, a=a)", True),
])
def test_the_writer_check_catches_each_way_of_writing(module, source, caught):
    assert bool(_writes(module, source)) == caught


def test_write_csv_writes_csv_writer_bytes(tmp_path):
    # one field of every type an output file holds: ints, repr floats, blank
    # test_error and gate_on, formatted errors, a "-" speedup, variant labels
    # and the corruption kind names
    labels = [PrioritizerConfig(kind=kind, beta=beta, pool_capacity=None).label()
              for kind, beta in [("uniform", 1.0), ("sb_loss", 1.0), ("sb_entropy", 0.5),
                                 ("vr", 1.0), ("sb_loss", 1e6)]]
    row = [0, 12800, -3, 0.1 + 0.2, 1 / 3, 1e-05, 2.5e16, 0.0, 0.75, "", "", "-", "0.1234",
           "0.5", *labels, "uniform_baseline", *(kind.value for kind in CORRUPTION_KINDS)]
    header = [f"c{i}" for i in range(len(row))]
    assert "sb_loss_b1" in labels and "vr_pauto" in labels
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(row)
    path = tmp_path / "deep" / "out.csv"
    harness.write_csv(path, header, [row])
    assert path.read_bytes() == expected.getvalue().encode()
