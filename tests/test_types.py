import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import concat, edit_header, encode_dataset_v1, overwrite_value, take
from scenmine import corpus, dgsfm
from scenmine.types import (
    ChangePoint,
    CompositeLabel,
    Dataset,
    DatasetFormatError,
    LatState,
    LongState,
    N_CLASSES,
    N_FEATURES,
    N_SLOTS,
    T_OBS,
    read_csv,
    read_dataset,
    read_dataset_arrays,
    read_blocks,
    read_dataset_header,
    validate_arrays,
    validate_record,
    write_blocks,
    write_csv,
    write_dataset,
    write_json,
)


def all_labels():
    return [CompositeLabel(lo, la) for lo in LongState for la in LatState]


def test_label_index_bijection_exhaustive():
    labels = all_labels()
    indices = [label.to_index() for label in labels]
    assert sorted(indices) == list(range(N_CLASSES))
    for label, index in zip(labels, indices):
        assert CompositeLabel.from_index(index) == label


def test_label_string_round_trip():
    for label in all_labels():
        assert CompositeLabel.from_string(label.to_string()) == label


def test_label_index_out_of_range():
    with pytest.raises(ValueError):
        CompositeLabel.from_index(N_CLASSES)
    with pytest.raises(ValueError):
        CompositeLabel.from_index(-1)


def test_change_point_requires_distinct_labels():
    label = CompositeLabel(LongState.ZERO, LatState.KEEP_LANE)
    with pytest.raises(ValueError):
        ChangePoint(t_c=10, label_before=label, label_after=label)


def test_pseudo_class_one_hot_round_trip():
    entries = [{"pseudo_class": i} for i in (*range(N_CLASSES), 3)]
    one_hot = Dataset.empty(entries).one_hot()
    assert one_hot.shape == (N_CLASSES + 1, N_CLASSES)
    assert one_hot.argmax(axis=1).tolist() == [e["pseudo_class"] for e in entries]
    assert (one_hot.sum(axis=1) == 1.0).all() and set(one_hot.ravel().tolist()) == {0.0, 1.0}
    assert Dataset.empty([]).one_hot().shape == (0, N_CLASSES)


def test_interaction_matrix_is_read_only(records, tmp_path):
    path = tmp_path / "ds.jsonl"
    write_dataset(records, path, dt=0.04)
    dataset, _ = read_dataset_arrays(path)
    with pytest.raises(ValueError):
        dataset.interaction[0, 0, 0] = 1.0


@pytest.fixture(scope="module")
def records():
    return corpus.build_archetype_corpus(2, 3, dgsfm.DgsfmConfig())


def test_validate_record_accepts_generated(records):
    for row in zip(*records.blocks):
        assert validate_record(row) == []


# Each invariant of ``validate_arrays``, and (array, index, value)
# assignments that break it alone in an archetype record, whose slots 0-3
# are present at every frame and slot 8 at none. Neighbor entries that sum
# to 1 cannot exceed 1 without one below 0, so the range has a second row.
VIOLATIONS = [
    pytest.param("tensor contains non-finite values", [("tensor", (0, 0, 0), math.nan)], id="tensor-nan"),
    pytest.param("ego slot (0) must be present at every frame",
                 [("mask", (0, 0), False), ("tensor", (0, slice(None), 0), 0.0)], id="ego-absent"),
    pytest.param("pseudo-vehicle slots must carry all-zero features", [("tensor", (8, 0, 0), 1.0)],
                 id="absent-slot-feature"),
    pytest.param("interaction entries must lie in [0, 1]", [("interaction", (slice(1, 4), 0), [1.5, -0.5, 0.0])],
                 id="interaction-range"),
    pytest.param("interaction entries must lie in [0, 1]", [("interaction", (slice(1, 4), 0), [1.0, -0.5, 0.5])],
                 id="interaction-negative"),
    pytest.param("interaction ego row must equal 1 at every frame", [("interaction", (0, 0), 0.5)],
                 id="interaction-ego-row"),
    pytest.param("interaction rows of absent slots must equal 0", [("interaction", (8, 0), 0.5)],
                 id="interaction-absent-slot"),
    pytest.param("present-neighbor interaction entries must sum to 1 per frame", [("interaction", (1, 0), 0.0)],
                 id="interaction-sum"),
]


def broken(records, edits, i=0):
    """Copies of the (tensor, mask, interaction) rows of record ``i`` of
    ``records``, changed by the ``(array, index, value)`` assignments
    ``edits``."""
    arrays = dict(zip(("tensor", "mask", "interaction"), (block[i].copy() for block in records.blocks)))
    for name, index, value in edits:
        arrays[name][index] = value
    return arrays["tensor"], arrays["mask"], arrays["interaction"]


@pytest.mark.parametrize("message, edits", VIOLATIONS)
def test_validate_record_flags_each_violation_alone(records, message, edits):
    assert validate_record(broken(records, edits)) == [message]


def test_validate_arrays_matches_validate_record_per_record(records):
    # Valid too: a frame without any present neighbor has no sum to check.
    alone = broken(records, [("mask", (slice(1, 4), 0), False), ("tensor", (slice(1, 4), slice(None), 0), 0.0),
                             ("interaction", (slice(1, 4), 0), 0.0)])
    valid = [*zip(*records.blocks), alone]
    batch = valid + [broken(records, param.values[1]) for param in VIOLATIONS]
    got = validate_arrays(*(np.stack(block) for block in zip(*batch)))
    assert got == [validate_record(row) for row in batch]
    assert got == [[]] * len(valid) + [[param.values[0]] for param in VIOLATIONS]


def test_read_dataset_rows_flag_the_one_record_with_a_broken_interaction_sum(records, tmp_path):
    interaction = records.interaction.copy()
    interaction[2, 1, 40] = 0.0
    path = tmp_path / "ds.jsonl"
    write_dataset(Dataset(records.entries, records.tensor, records.mask, interaction), path, dt=0.04)
    rows, dt = read_dataset(path)
    assert dt == 0.04 and len(rows) == len(records)
    assert [validate_record(row) for row in rows] == [[]] * 2 + [
        ["present-neighbor interaction entries must sum to 1 per frame"]] + [[]] * (len(records) - 3)


def test_dataset_round_trip_bit_identical(records, tmp_path):
    path = tmp_path / "ds.jsonl"
    write_dataset(records, path, dt=0.04)
    loaded, dt = read_dataset_arrays(path)
    assert dt == 0.04
    assert loaded.entries == records.entries
    for got, want in zip(loaded.blocks, records.blocks):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable


def test_write_dataset_refuses_a_non_finite_value(records, tmp_path):
    tensor = records.tensor[:2].copy()
    tensor[1, 0, 2, 5] = np.nan
    path = tmp_path / "ds.jsonl"
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: non-finite value in array tensor")):
        write_dataset(Dataset(records.entries[:2], tensor, records.mask[:2], records.interaction[:2]), path, dt=0.04)
    assert not path.exists()


@pytest.fixture(scope="module")
def parent_and_children(records):
    """``records`` and their augmentations, as ``augment`` writes them."""
    children, _ = corpus.augment_corpus(records, 0.04, n_augment=3, min_gap=80.0, seed=5)
    return records, children


def in_parts(parent, children):
    """The records of ``parent`` then ``children``, each block given as the
    two parts."""
    return Dataset(parent.entries + children.entries, *zip(parent.blocks, children.blocks))


def test_dataset_written_from_block_parts_is_the_concatenation(parent_and_children, tmp_path):
    parts, whole = tmp_path / "parts.jsonl", tmp_path / "whole.jsonl"
    write_dataset(in_parts(*parent_and_children), parts, dt=0.04)
    write_dataset(concat(*parent_and_children), whole, dt=0.04)
    assert len(parent_and_children[1]) == 3
    assert parts.read_bytes() == whole.read_bytes()


def test_a_non_finite_value_in_a_second_part_names_the_block(parent_and_children, tmp_path):
    parent, children = parent_and_children
    interaction = children.interaction.copy()
    interaction[2, 1, 7] = np.nan
    path = tmp_path / "ds.jsonl"
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: non-finite value in array interaction")):
        write_dataset(in_parts(parent, Dataset(children.entries, children.tensor, children.mask, interaction)),
                      path, dt=0.04)
    assert not path.exists()


@pytest.mark.parametrize("second", [
    pytest.param(np.zeros((2, 4)), id="trailing-shape"),
    pytest.param(np.zeros((2, 3), np.float32), id="dtype"),
    pytest.param(np.zeros((2, 3, 1)), id="rank"),
])
def test_block_parts_that_differ_are_refused_before_the_file_is_opened(second, tmp_path):
    path = tmp_path / "blocks.bin"
    with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: the parts of array a differ")):
        write_blocks(path, {"format": "f"}, [("b", np.zeros(2)), ("a", (np.zeros((1, 3)), second))],
                     DatasetFormatError)
    assert not path.exists()


def test_dataset_round_trip_of_zero_records(tmp_path):
    path = tmp_path / "ds.jsonl"
    write_dataset(Dataset.empty([]), path, dt=0.1)
    dataset, dt = read_dataset_arrays(path)
    assert (len(dataset), dt) == (0, 0.1)
    assert [block.shape for block in dataset.blocks] == [(0, N_SLOTS, N_FEATURES, T_OBS), (0, N_SLOTS, T_OBS),
                                                         (0, N_SLOTS, T_OBS)]
    assert read_dataset(path) == ([], 0.1)


def test_dataset_rejects_unknown_version(records, tmp_path):
    path = tmp_path / "ds.jsonl"
    write_dataset(take(records, slice(1)), path, dt=0.04)
    path.write_bytes(path.read_bytes().replace(b"-v2", b"-v999", 1))
    with pytest.raises(DatasetFormatError):
        read_dataset_arrays(path)


def test_dataset_v1_file_is_unsupported(records, tmp_path):
    path = tmp_path / "ds.jsonl"
    path.write_bytes(encode_dataset_v1(take(records, slice(2)), 0.04))
    with pytest.raises(DatasetFormatError, match="unsupported dataset format 'scenmine-dataset-v1'"):
        read_dataset_arrays(path)


def test_header_and_array_readers_agree_with_read_dataset(records, tmp_path):
    augmented, _ = corpus.augment_corpus(records, 0.04, n_augment=3, min_gap=80.0, seed=4)
    path = tmp_path / "ds.jsonl"
    both = concat(records, augmented)
    write_dataset(both, path, dt=0.04)
    rows, dt = read_dataset(path)
    entries, header_dt = read_dataset_header(path)
    dataset, array_dt = read_dataset_arrays(path)
    assert header_dt == array_dt == dt == 0.04
    assert entries == dataset.entries == both.entries
    assert sum(e["augmentation_parent"] is not None for e in entries) == 3
    # Each row is read-only views into the blocks of one read.
    for i, row in enumerate(rows):
        for got, first, block in zip(row, rows[0], dataset.blocks):
            assert got.base is not None and got.base is first.base and not got.flags.writeable
            assert got.tobytes() == block[i].tobytes()


def test_record_entries_read_back_as_written(records, tmp_path):
    # Keys beyond the record fields are dropped on reading.
    path = tmp_path / "ds.jsonl"
    write_dataset(Dataset([{**e, "extra": 1} for e in records.entries], *records.blocks), path, dt=0.04)
    assert read_dataset_header(path)[0] == records.entries
    assert records.entries[0] == {"record_id": "arch-accelerate:1:25", "recording_id": "arch-accelerate",
                                  "vehicle_id": 1, "t_c": 25, "before": "zero/keep_lane",
                                  "after": "accelerate/keep_lane", "pseudo_class": 2, "augmentation_parent": None}


@pytest.mark.parametrize(
    "damage, in_header",
    [
        pytest.param(lambda b: b[:-10], False, id="truncated"),
        pytest.param(lambda b: b.replace(b'"t_c":', b'"tc":', 1), True, id="missing-key"),
        pytest.param(lambda b: b.replace(b'["tensor",[', b'["tensor",[1,', 1), True, id="array-length"),
        pytest.param(lambda b: b.replace(b'"pseudo_class":', b'"pseudo_class":99,"x":', 1), True, id="class-range"),
        pytest.param(lambda b: b.replace(b'"dt":', b'"step":', 1), True, id="no-dt"),
        pytest.param(lambda b: b"[]\n" + b, True, id="header-list"),
        pytest.param(lambda b: b.replace(b"{", b"{\xff", 1), True, id="undecodable"),
        pytest.param(lambda b: b + b"\xff\n", False, id="trailing-bytes"),
        pytest.param(overwrite_value("tensor", struct.pack("<d", math.nan), 7), False, id="tensor-nan"),
        pytest.param(overwrite_value("interaction", struct.pack("<d", -math.inf), 900), False, id="interaction-inf"),
        pytest.param(overwrite_value("mask", b"\x02", 5), False, id="mask-byte"),
        pytest.param(lambda b: b.replace(b'"pseudo_class":', b'"pseudo_class":-1,"x":', 1), True,
                     id="class-negative"),
        pytest.param(lambda b: b.replace(b'"n_records":2', b'"n_records":3', 1), True, id="record-count"),
        pytest.param(lambda b: b.replace(b'"vehicle_id":', b'"vehicle_id":"7","x":', 1), True,
                     id="vehicle-id-type"),
        pytest.param(edit_header(lambda h: h.update(format="scenmine-dataset-v1")), True, id="other-format"),
        pytest.param(edit_header(lambda h: h.update(dt=-0.04)), True, id="dt-negative"),
        pytest.param(edit_header(lambda h: h["records"][1].update(after=h["records"][1]["before"])), True,
                     id="equal-anchor-labels"),
        pytest.param(edit_header(lambda h: h["records"][1].update(record_id=h["records"][0]["record_id"])), True,
                     id="repeated-id"),
    ],
)
def test_dataset_damage_is_format_error(records, tmp_path, damage, in_header):
    """Every reader rejects damage to the header. The header reader reads no
    block, so for damage to the blocks it returns the intact header."""
    path = tmp_path / "ds.jsonl"
    write_dataset(take(records, slice(2)), path, dt=0.04)
    intact = read_dataset_header(path)
    path.write_bytes(damage(path.read_bytes()))
    for read in (read_dataset, read_dataset_arrays) + ((read_dataset_header,) if in_header else ()):
        with pytest.raises(DatasetFormatError, match="ds.jsonl"):
            read(path)
    if not in_header:
        assert read_dataset_header(path) == intact


@pytest.mark.parametrize("count", [25, 10**12])
def test_array_list_larger_than_the_file_is_refused_before_layout(tmp_path, count):
    path = tmp_path / "blocks.bin"
    write_blocks(path, {"format": "f"}, [("a", np.zeros(3))], DatasetFormatError)  # 24 bytes of blocks
    path.write_bytes(edit_header(lambda h: h.update(arrays=[["a", [count]]]))(path.read_bytes()))

    def layout(header):
        raise AssertionError("layout called")

    with pytest.raises(DatasetFormatError, match=f"blocks.bin: x header names {count} array values, "
                                                 "more than the 24 bytes after it"):
        read_blocks(path, "f", "x", layout, DatasetFormatError)


@pytest.mark.parametrize("arrays", [None, 7, [["a"]], [["a", 3]], [["a", "xyz"]], [["a", [10**12, "x"]]]])
def test_array_list_that_is_not_names_and_shapes_is_refused(tmp_path, arrays):
    path = tmp_path / "blocks.bin"
    write_blocks(path, {"format": "f"}, [("a", np.zeros(3))], DatasetFormatError)
    path.write_bytes(edit_header(lambda h: h.update(arrays=arrays))(path.read_bytes()))
    with pytest.raises(DatasetFormatError, match="blocks.bin: array list does not match the x header"):
        read_blocks(path, "f", "x", lambda header: (None, [("a", (3,), np.float64)]), DatasetFormatError)


@pytest.mark.parametrize("shape, error", [([-1], "ValueError"), ([1.5], "TypeError"), ([3], "MemoryError")],
                         ids=["negative", "fractional", "memory"])
def test_block_that_cannot_be_allocated_is_an_invalid_header(tmp_path, monkeypatch, shape, error):
    # The layout names the shape the header gives; read_blocks allocates it.
    path = tmp_path / "blocks.bin"
    write_blocks(path, {"format": "f"}, [("a", np.zeros(3))], DatasetFormatError)
    path.write_bytes(edit_header(lambda h: h.update(arrays=[["a", shape]]))(path.read_bytes()))
    if error == "MemoryError":
        def empty(shape, dtype):
            raise MemoryError("Unable to allocate 4.4 TiB")

        monkeypatch.setattr(np, "empty", empty)
    with pytest.raises(DatasetFormatError, match=rf"blocks.bin: invalid x header \({error}"):
        read_blocks(path, "f", "x", lambda header: (None, [("a", tuple(shape), np.float64)]), DatasetFormatError)


def test_header_read_allocates_no_block(tmp_path):
    # The 90 archetype records' blocks take 4.4 MiB, their header 18 kB.
    path = tmp_path / "ds.jsonl"
    write_dataset(corpus.build_archetype_corpus(30, 1, dgsfm.DgsfmConfig()), path, dt=0.04)
    read_dataset_header(path)  # leaves no first call's import or cache to the traced one
    tracemalloc.start()
    try:
        entries, _ = read_dataset_header(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(entries) == 90 and peak < 0.5 * 2**20


def test_dataset_write_is_deterministic(records, tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(records, p1, dt=0.04)
    write_dataset(records, p2, dt=0.04)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    with pytest.raises(ValueError):
        write_json({"purity_entropy": value}, tmp_path / "metrics.json")


def test_csv_reads_named_columns_in_any_order_and_quoted_fields(tmp_path):
    path = tmp_path / "pairs.csv"
    write_csv(path, ("extra", "child_id", "parent_id"), [("x", "syn,thetic:1:25:aug", "syn,thetic:1:25")])
    assert path.read_bytes() == b'extra,child_id,parent_id\r\nx,"syn,thetic:1:25:aug","syn,thetic:1:25"\r\n'
    rows = read_csv(path, ("parent_id", "child_id"), lambda parent, child: (parent, child))
    assert rows == [("syn,thetic:1:25", "syn,thetic:1:25:aug")]


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
def test_csv_names_the_line_of_an_undecodable_byte(tmp_path, ending):
    path = tmp_path / "pairs.csv"
    path.write_bytes(ending.join([b"parent_id,child_id", b"a,\xff", b"c,d", b""]))
    with pytest.raises(DatasetFormatError, match=r"pairs.csv: malformed row \(line 2: 'utf-8' codec"):
        read_csv(path, ("parent_id", "child_id"), lambda parent, child: (parent, child))
