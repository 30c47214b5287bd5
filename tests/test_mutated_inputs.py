"""Mutated reports and manifests end in a one-line diagnosis, not a traceback.

Each case takes a valid input and changes one field of it.  The inputs are a
bisection, a tripart (k = 1, with a size window), a dual and an rpart report
of G(30, 0.4) for ``degpart verify``, so every field of each statement
record is changed too, and a three-entry manifest for ``degpart bench``.  Every field is swapped in turn
for a value of each other JSON type, and deleted (of a label list, the first
and the last entry); hypothesis sets one integer field, ``r`` included, to a
value up to +-2**100.  Whatever the change, ``verify`` must return 0 with
one ``PASS`` line or 1 with one ``FAIL`` line, and ``bench`` must return 0
with its CSV with one-line error cells, or 2 with one ``error:`` line and
nothing else.
"""

import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degpart import bench, cli

BIG = 2 ** 100
# values of the other JSON types a field may be swapped for
SWAPS = ["x", None, [], {}, 1.5, True, -7]
# generator sizes go no higher than this, so no graph has more than 30
# vertices: a larger size would run the pipeline on a larger graph
GENERATOR_SIZES = {"n", "a", "b", "l"}
SIZE_CAP = 5

MANIFEST = [
    {"generator": {"type": "gnp", "n": 12, "p": 0.5}, "shape": "bisect",
     "mode": "internal", "seeds": [0, 1], "size_window": "vacuous",
     "weight_budget": "vacuous", "attempts": 2},
    {"generator": {"type": "complete_bipartite", "a": 3, "b": 4},
     "shape": "tripart", "mode": "external", "k": 1, "c": 0.5, "seeds": [0]},
    {"generator": {"type": "kuhn_osthus", "n": 5, "l": 2}, "shape": "rpart",
     "alpha": ["1/5", "3/10", "1/2"], "seeds": [0]},
]


def run(*argv):
    """cli.main on argv: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def fields(node, at=()):
    """(path, value) of every field below node, a path being its keys and
    indexes; of a list of scalars (a label list), only the first and the
    last entry."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
        if not any(isinstance(v, (dict, list)) for v in node):
            items = items[:1] + items[1:][-1:]
    else:
        return
    for key, child in items:
        yield at + (key,), child
        yield from fields(child, at + (key,))


def changed(doc, path, new=None, delete=False):
    """A copy of doc with the field at path set to new, or deleted."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def swapped_and_deleted(doc):
    """(what was done, doc changed so) for every field of doc swapped for
    each value of another type, and deleted."""
    for path, old in fields(doc):
        for new in SWAPS:
            if type(new) is not type(old):
                yield f"{path} = {new!r}", changed(doc, path, new)
        yield f"del {path}", changed(doc, path, delete=True)


@st.composite
def large_integers(draw, doc):
    """doc with one integer field set to an integer up to +-2**100."""
    path, _ = draw(st.sampled_from([(path, value) for path, value in fields(doc)
                                    if type(value) is int]))
    top = SIZE_CAP if "generator" in path and path[-1] in GENERATOR_SIZES else BIG
    return changed(doc, path, draw(st.sampled_from([-BIG, -1, 0, top])
                                   | st.integers(-BIG, top)))


# the reports' shapes, and the partition flags of each
SHAPES = {"bisect": [], "tripart": ["--k", 1, "--size-window", "5:15"],
          "dual": ["--k", 1], "rpart": ["--alpha", "1/5,3/10,1/2"]}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """A G(30, 0.4) graph file and a report of each of SHAPES."""
    where = tmp_path_factory.mktemp("mutated")
    graph = where / "g.txt"
    assert run("gen", "--type", "gnp", "--n", 30, "--p", 0.4, "--seed", 3,
               "--out", graph)[0] == 0
    docs = {}
    for shape, extra in SHAPES.items():
        path = where / f"{shape}.json"
        run("partition", "--graph", graph, "--shape", shape, *extra, "--out", path)
        docs[shape] = json.loads(path.read_text())
        record = json.dumps(docs[shape]["certificate"]["params"]["statement"])
        assert run("verify", "--graph", graph, "--cert", path)[:2] == \
            (0, f"PASS: all claims verified; statement certified: {record}\n")
    return where, docs


def verify_diagnosis(where, doc):
    """Why ``degpart verify`` of doc, against the graph it was made on, gives
    no one-line PASS (exit 0) or FAIL (exit 1); None if it does."""
    path = where / "mutant.json"
    path.write_text(json.dumps(doc))
    code, out, err = run("verify", "--graph", where / "g.txt", "--cert", path)
    lead = {0: "PASS", 1: "FAIL"}.get(code)
    text = out + err
    if lead is None or not text.startswith(lead) or text.count("\n") != 1 \
            or not text.endswith("\n"):
        return f"exit {code}: {text!r}"
    return None


def bench_diagnosis(where, manifest):
    """Why ``degpart bench`` of manifest gives neither its CSV with one-line
    error cells nor one ``error:`` line; None if it gives one of them."""
    path = where / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, out, err = run("bench", "--manifest", path)
    if code == 0 and err == "" and out.splitlines()[0] == ",".join(bench.COLUMNS) \
            and all("\n" not in row["error"] for row in csv.DictReader(io.StringIO(out))):
        return None
    if code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1:
        return None
    return f"exit {code}: {out!r} {err!r}"


@pytest.mark.parametrize("shape", list(SHAPES))
def test_verify_diagnoses_every_swapped_or_deleted_field(reports, shape):
    where, docs = reports
    bad = {what: why for what, doc in swapped_and_deleted(docs[shape])
           if (why := verify_diagnosis(where, doc))}
    assert bad == {}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(SHAPES)), st.data())
def test_verify_diagnoses_a_large_integer_field(reports, shape, data):
    where, docs = reports
    assert verify_diagnosis(where, data.draw(large_integers(docs[shape]))) is None


def test_the_manifest_runs_without_error():
    rows = bench.bench_sweep(MANIFEST)
    assert len(rows) == 8 and all(row["error"] == "" for row in rows)


def test_bench_diagnoses_every_swapped_or_deleted_field(reports):
    bad = {what: why for what, manifest in swapped_and_deleted(MANIFEST)
           if (why := bench_diagnosis(reports[0], manifest))}
    assert bad == {}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bench_diagnoses_a_large_integer_field(reports, data):
    assert bench_diagnosis(reports[0], data.draw(large_integers(MANIFEST))) is None
