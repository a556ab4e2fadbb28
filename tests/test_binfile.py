"""The binary run-directory files: 64-byte aligned arrays, loaded as views of
one private, copy-on-write mapping per file that no edit or rewrite of the
run reaches."""

import gc
import hashlib
import mmap
import os
import re
import shutil

import numpy as np
import pytest

from encsearch import weighting
from encsearch.aspe import save_key
from encsearch.binfile import BinaryReader, writing
from encsearch.corpus import Document, synthetic_corpus
from encsearch.engine import Pipeline, PipelineConfig
from encsearch.errors import EncSearchError
from encsearch.forest import _drop_rows, save_forest

BINARY_FILES = ["forest_plain.bin", "forest_enc.bin", "keys.bin", "weights.bin"]
KINDS = {"forest_plain.bin": "forest", "forest_enc.bin": "forest", "keys.bin": "key",
         "weights.bin": "weights"}


@pytest.fixture(scope="module")
def pipe():
    return Pipeline.build(synthetic_corpus(60, 100, 4, seed=3), PipelineConfig(s=3, probe_count=50))


@pytest.fixture
def run(tmp_path, pipe):
    pipe.save(tmp_path / "run")
    return tmp_path / "run"


def digests(run):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in run.iterdir()}


def mapped_offset(arr):
    """The byte offset of ``arr`` in the file mapping it views."""
    base = arr
    while not isinstance(base, mmap.mmap):
        base = base.base if isinstance(base, np.ndarray) else base.obj  # a memoryview
    return arr.ctypes.data - np.frombuffer(base, np.uint8).ctypes.data


def file_arrays(loaded):
    """(file name, array) of every array a loaded pipeline keeps from a file."""
    for name, trees in (("forest_plain.bin", loaded.trees), ("forest_enc.bin", loaded.server.trees)):
        for t in trees:
            mats = (t.enc1, t.enc2) if t.encrypted else (t.nodes, t.probe)
            yield from ((name, a) for a in (t.doc_ids, *mats))
    for pk in loaded.key:
        yield from (("keys.bin", a) for a in (pk.indicator, pk.m1, pk.m2, *pk._inv_columns))
    for corr, w_max, weights in zip(loaded.correlativity, loaded.w_max, loaded.weights):
        rows = next(iter(weights.values())).base  # the (owners, n) block of weight rows
        yield from (("weights.bin", a) for a in (corr, w_max, rows))


def updates(pipeline):
    """Row-local deletes and an insert; their reports."""
    reports = [pipeline.delete_document(doc_id) for doc_id in (3, 17, 41)]
    donor = synthetic_corpus(1, 100, 4, seed=9)[0]
    reports.append(pipeline.insert_document(Document(500, 2, donor.counts)))
    return reports


def answers(pipeline):
    queries = pipeline.sample_queries(5, n_keywords=5, seed=4)
    return [(pipeline.run_query(q, k=8), pipeline.exact_search(q.keywords)) for q in queries]


def test_every_array_is_a_64_byte_aligned_view_of_its_file(run):
    """Each array of a loaded run starts at a multiple of 64 bytes of the
    file it came from and is a writable, C-contiguous view of that file's
    bytes, not a copy."""
    loaded = Pipeline.load(run)
    raw = {name: (run / name).read_bytes() for name in BINARY_FILES}
    seen = set()
    for name, arr in file_arrays(loaded):
        at = mapped_offset(arr)
        assert at % 64 == 0, (name, at)
        assert raw[name][at : at + arr.nbytes] == arr.tobytes()
        assert arr.flags.writeable and arr.flags.c_contiguous and not arr.flags.owndata
        seen.add(name)
    assert seen == set(BINARY_FILES)


@pytest.mark.parametrize("name", BINARY_FILES)
def test_non_zero_padding_fails_load(run, name):
    """Byte 40 lies in the padding before the first array of each file: after
    the 37 bytes of a forest's headers, 12 of a key's and 16 of weights'."""
    path = run / name
    raw = bytearray(path.read_bytes())
    assert raw[40] == 0
    raw[40] = 1
    path.write_bytes(bytes(raw))
    want = f"{path}: non-zero padding before the array at byte 64 of the {KINDS[name]} file"
    with pytest.raises(EncSearchError, match=re.escape(want)):
        Pipeline.load(run)


@pytest.mark.parametrize("name, older, current", [
    ("forest_plain.bin", b"ESF3", b"ESF4"),
    ("forest_enc.bin", b"ESF3", b"ESF4"),
    ("keys.bin", b"ESK2", b"ESK3"),
    ("weights.bin", b"ESW1", b"ESW2"),
])
def test_format_before_alignment_fails_load(run, name, older, current):
    """A file in the format before arrays were aligned fails the load with
    an error naming the file, the magic it holds and the one expected."""
    path = run / name
    assert path.read_bytes()[:4] == current
    path.write_bytes(older + path.read_bytes()[4:])
    want = f"{path}: not a {KINDS[name]} file (magic {older!r}, expected {current!r})"
    with pytest.raises(EncSearchError, match=re.escape(want)):
        Pipeline.load(run)


@pytest.mark.parametrize("weights", [np.nan, -0.5, 1.5, np.inf])
def test_load_rejects_weight_save_cannot_write(run, pipe, weights):
    """``save`` writes only weights in [0, 1]: a NaN row would otherwise
    load and silently give an insert the new-owner weighting."""
    owner_weights = [dict(w) for w in pipe.weights]
    owner = next(iter(owner_weights[0]))
    owner_weights[0][owner] = np.full_like(owner_weights[0][owner], weights)
    path = run / "weights.bin"
    weighting.save_weights(path, pipe.correlativity, pipe.w_max, owner_weights)
    with pytest.raises(EncSearchError, match=re.escape(f"{path}: partition 0 has a weight outside [0, 1]")):
        Pipeline.load(run)


@pytest.mark.parametrize("w_max", [np.nan, -1.0, np.inf])
def test_load_rejects_w_max_save_cannot_write(run, pipe, w_max):
    bad = [w.copy() for w in pipe.w_max]
    bad[1][0] = w_max
    path = run / "weights.bin"
    weighting.save_weights(path, pipe.correlativity, bad, pipe.weights)
    want = f"{path}: partition 1 has a w_max below 0 or not finite"
    with pytest.raises(EncSearchError, match=re.escape(want)):
        Pipeline.load(run)


def test_edits_of_a_loaded_run_never_reach_its_files(run):
    """Row-local deletes move rows inside the mapped arrays, and an insert
    and a sigma change replace them: not a byte of the run changes."""
    before = digests(run)
    loaded = Pipeline.load(run)
    reports = updates(loaded)
    assert not any(r.rebuilt for r in reports[:3])  # the deletes stayed row-local
    loaded.set_sigma(0.1)
    answers(loaded)
    assert digests(run) == before


def test_loaded_run_outlives_rewrites_of_its_files(tmp_path, run):
    """While a loaded pipeline maps the run, each file is rewritten through
    its own writer with another pipeline's arrays, and then the whole
    directory is saved over: the loaded pipeline still answers and updates
    as a fresh load of the original run does."""
    shutil.copytree(run, tmp_path / "copy")
    loaded = Pipeline.load(run)
    other = Pipeline.build(synthetic_corpus(50, 100, 4, seed=8), PipelineConfig(s=3, seed=5))
    save_forest(other.trees, run / "forest_plain.bin")
    save_forest(other.server.trees, run / "forest_enc.bin")
    save_key(other.key, run / "keys.bin")
    weighting.save_weights(run / "weights.bin", other.correlativity, other.w_max, other.weights)
    other.save(run)
    fresh = Pipeline.load(tmp_path / "copy")
    assert answers(loaded) == answers(fresh)
    assert updates(loaded) == updates(fresh)
    assert answers(loaded) == answers(fresh)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts the entries of /proc/self/fd")
def test_loaded_run_holds_one_descriptor_per_binary_file(run):
    """Each file is mapped once, whatever its array count, and the
    descriptors go with the pipeline."""
    gc.collect()
    before = len(os.listdir("/proc/self/fd"))
    loaded = Pipeline.load(run)
    assert len(os.listdir("/proc/self/fd")) - before <= len(BINARY_FILES)
    del loaded
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == before


def smaps_rss(path):
    """Resident bytes of this process's mappings of ``path``."""
    name, total, inside = str(path.resolve()), 0, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split(maxsplit=5)
            if re.fullmatch(r"[0-9a-f]+-[0-9a-f]+", head[0]):
                inside = len(head) == 6 and head[5].rstrip("\n") == name
            elif inside and head[0] == "Rss:":
                total += int(head[1]) * 1024
    return total


@pytest.mark.skipif(not os.path.isfile("/proc/self/smaps"), reason="reads /proc/self/smaps")
def test_replaced_arrays_give_back_their_pages(tmp_path):
    """Once every partition has been queried, all of the big server tree's
    pages are resident; an insert that replaces its three arrays gives them
    back, all but the edge pages each may share with its neighbours."""
    docs = synthetic_corpus(200, 200, 4, seed=3)
    Pipeline.build(docs, PipelineConfig(s=3)).save(tmp_path / "run")
    loaded = Pipeline.load(tmp_path / "run")
    loaded.query(loaded.sample_queries(1, n_keywords=5, seed=0)[0].keywords, 5, t=loaded.s)
    big = max(range(loaded.s), key=lambda p: len(loaded.server.trees[p].doc_ids))
    tree = loaded.server.trees[big]
    arrays = (tree.doc_ids, tree.enc1, tree.enc2)
    replaced = sum(a.nbytes for a in arrays) - 2 * mmap.PAGESIZE * len(arrays)
    assert replaced > 100 * mmap.PAGESIZE
    del tree, arrays
    enc = tmp_path / "run" / "forest_enc.bin"
    before = smaps_rss(enc)
    loaded.insert_document(Document(10_000, 1, docs[0].counts), partition=big)
    assert before - smaps_rss(enc) >= replaced


def test_views_outlive_the_array_they_were_taken_from(tmp_path):
    """A leading view that ``_drop_rows`` leaves keeps its moved rows after
    the array it was taken from is dropped, and an in-place edit of the
    next array, whose first page the two share, outlives both."""
    path = tmp_path / "two.bin"
    first = np.arange(3000, dtype="<f8").reshape(1000, 3)
    with writing(path, b"TEST") as out:
        out.array(first, "<f8")
        out.array(np.zeros(1000), "<f8")
    reader = BinaryReader(path, "test file", EncSearchError)
    reader.magic(b"TEST")
    rows, after = reader.array("<f8", (1000, 3)), reader.array("<f8", (1000,))
    assert mapped_offset(after) % mmap.PAGESIZE  # the two share a page
    view = _drop_rows(rows, [0, 500])
    after[:] = -1.0
    del rows, reader
    gc.collect()
    assert view.tobytes() == np.delete(first, [0, 500], axis=0).tobytes()
    del view
    gc.collect()
    assert np.all(after == -1.0)
