import inspect
import math

import numpy as np
import pytest

from scenmine import clustering, corpus, dgsfm, extraction, types
from scenmine.types import (
    ChangePoint,
    CompositeLabel,
    LatState,
    LongState,
    N_SLOTS,
    T_OBS,
    Dataset,
    validate_arrays,
)

from conftest import make_traj

DGSFM = dgsfm.DgsfmConfig()
MIN_GAP = 80.0  # m

ZERO_KL = CompositeLabel(LongState.ZERO, LatState.KEEP_LANE)
ACC_KL = CompositeLabel(LongState.ACCELERATE, LatState.KEEP_LANE)
ZERO_LC = CompositeLabel(LongState.ZERO, LatState.LANE_CHANGE)


def cp(t_c=200, after=ACC_KL, before=ZERO_KL):
    return ChangePoint(t_c=t_c, label_before=before, label_after=after)


def test_ego_alone_pads_all_neighbor_slots():
    ego = make_traj(n=400, vehicle_id=1)
    dataset, summary = extraction.extract([ego], {1: [cp()]}, extraction.ExtractionConfig(), DGSFM)
    assert summary.extracted == len(dataset) == 1
    assert dataset.mask[0, 0].all()
    assert not dataset.mask[0, 1:].any()
    assert np.all(dataset.tensor[0, 1:] == 0.0)
    assert np.all(dataset.interaction[0, 1:] == 0.0)
    assert validate_arrays(*dataset.blocks) == [[]]


def test_ten_neighbors_eight_nearest_by_distance():
    ego = make_traj(n=400, vehicle_id=0, x0=0.0)
    others = [
        make_traj(n=400, vehicle_id=i, x0=7.0 * i, y0=0.0) for i in range(1, 11)
    ]
    dataset, _ = extraction.extract(
        [ego] + others, {0: [cp()]}, extraction.ExtractionConfig(), DGSFM
    )
    values, mask = dataset.tensor[0], dataset.mask[0]
    # All vehicles share the same vx, so ordering by initial offset holds at t_c.
    distances = []
    for slot in range(1, N_SLOTS):
        assert mask[slot].all()
        # Position stored relative to the ego anchor; recover distance at t_c.
        t_idx = 200 - (200 + extraction.ExtractionConfig().tensor_offset)
        dx = values[slot, 0, t_idx]
        dy = values[slot, 1, t_idx]
        distances.append(math.hypot(dx, dy))
    assert distances == sorted(distances)
    assert len(distances) == 8


def test_truncated_window_skipped():
    ego = make_traj(n=400, vehicle_id=1)
    dataset, summary = extraction.extract(
        [ego], {1: [cp(t_c=30)]}, extraction.ExtractionConfig(), DGSFM
    )
    assert len(dataset) == 0 and dataset.tensor.shape == (0, N_SLOTS, 6, T_OBS)
    assert summary.skipped_window == 1


def test_ego_anchor_position_is_origin():
    ego = make_traj(n=400, vehicle_id=1, x0=500.0, y0=7.5)
    dataset, _ = extraction.extract([ego], {1: [cp()]}, extraction.ExtractionConfig(), DGSFM)
    t_idx = -extraction.ExtractionConfig().tensor_offset  # anchor index in tensor
    assert dataset.tensor[0, 0, 0, t_idx] == 0.0
    assert dataset.tensor[0, 0, 1, t_idx] == 0.0


def test_partial_presence_masked_per_frame():
    ego = make_traj(n=400, vehicle_id=1)
    # Neighbor appears only from frame 210 on: present for the window tail.
    # x0 applies at its first frame; ego is near x = 210 by frame 210.
    late = make_traj(n=190, vehicle_id=2, first_frame=210, x0=230.0)
    dataset, _ = extraction.extract(
        [ego, late], {1: [cp()]}, extraction.ExtractionConfig(), DGSFM
    )
    mask = dataset.mask[0, 1]
    # Window covers frames 175..274; the neighbor exists from 210.
    assert not mask[: 210 - 175].any()
    assert mask[210 - 175 :].all()
    assert validate_arrays(*dataset.blocks) == [[]]


def test_class_filter_soundness():
    ego_lc = make_traj(n=400, vehicle_id=1)
    points = {
        1: [
            cp(t_c=150, before=ZERO_KL, after=ACC_KL),
            cp(t_c=250, before=ZERO_KL, after=ZERO_LC),
        ]
    }
    cfg = extraction.ExtractionConfig(
        class_filter=frozenset({(LatState.KEEP_LANE, LatState.LANE_CHANGE)})
    )
    dataset, summary = extraction.extract([ego_lc], points, cfg, DGSFM)
    assert vars(summary) == {"extracted": 1, "skipped_window": 0, "filtered_class": 1,
                             "per_class_counts": {str(ZERO_LC.to_index()): 1}}
    assert len(dataset) == 1
    assert dataset.entries == [{"record_id": "test:1:250", "recording_id": "test", "vehicle_id": 1, "t_c": 250,
                                "before": "zero/keep_lane", "after": "zero/lane_change",
                                "pseudo_class": ZERO_LC.to_index(), "augmentation_parent": None}]


def test_extract_determinism():
    ego = make_traj(n=400, vehicle_id=0)
    others = [make_traj(n=400, vehicle_id=i, x0=9.0 * i) for i in range(1, 5)]
    a, _ = extraction.extract([ego] + others, {0: [cp()]}, extraction.ExtractionConfig(), DGSFM)
    b, _ = extraction.extract([ego] + others, {0: [cp()]}, extraction.ExtractionConfig(), DGSFM)
    assert a.entries == b.entries
    for block_a, block_b in zip(a.blocks, b.blocks):
        assert np.array_equal(block_a, block_b)


# ----------------------------- augmentation ---------------------------------

@pytest.fixture(scope="module")
def parent_record():
    """The (tensor, mask, interaction) rows of an archetype record."""
    dataset = corpus.build_archetype_corpus(1, 8, DGSFM)
    return tuple(block[0] for block in dataset.blocks)


@pytest.fixture(scope="module")
def donor():
    return corpus.make_donor(1, DGSFM.dt)


def inserted_slot(child, parent):
    """The one slot that the child's mask has and its parent's lacks."""
    new_slots = np.flatnonzero(child[1].any(axis=1) & ~parent[1].any(axis=1))
    assert len(new_slots) == 1
    return new_slots[0]


def test_augment_inverse_reproduces_parent(parent_record, donor):
    child = extraction.augment_irrelevant(*parent_record, donor, MIN_GAP, 0)
    slot = inserted_slot(child, parent_record)
    values, mask, inter = (arr.copy() for arr in child)
    values[slot] = 0.0
    mask[slot] = False
    inter[slot] = 0.0
    assert np.array_equal(values, parent_record[0])
    assert np.array_equal(mask, parent_record[1])
    assert np.array_equal(inter, parent_record[2])


def test_augment_min_gap_respected(parent_record, donor):
    child = extraction.augment_irrelevant(*parent_record, donor, MIN_GAP, 0)
    slot = inserted_slot(child, parent_record)
    ego = child[0][0, :2, :]
    ins = child[0][slot, :2, :]
    dist = np.hypot(ego[0] - ins[0], ego[1] - ins[1])
    assert dist.min() > MIN_GAP


def test_augment_interaction_row_zero(parent_record, donor):
    child = extraction.augment_irrelevant(*parent_record, donor, MIN_GAP, 0)
    slot = inserted_slot(child, parent_record)
    assert np.all(child[2][slot] == 0.0)
    assert validate_arrays(*(arr[None] for arr in child)) == [[]]


def test_augment_no_free_slot_is_error(donor):
    ego = make_traj(n=400, vehicle_id=0)
    others = [make_traj(n=400, vehicle_id=i, x0=5.0 * i) for i in range(1, 10)]
    dataset, _ = extraction.extract(
        [ego] + others, {0: [cp()]}, extraction.ExtractionConfig(), DGSFM
    )
    assert dataset.mask.all()
    with pytest.raises(extraction.AugmentationError):
        extraction.augment_irrelevant(*(block[0] for block in dataset.blocks), donor, MIN_GAP, 0)


def test_augment_unqualified_donor_is_error(parent_record):
    wiggly = make_traj(
        n=400, vehicle_id=99, ay=np.full(400, 0.5), vy=np.full(400, 0.5)
    )
    with pytest.raises(extraction.AugmentationError):
        extraction.augment_irrelevant(*parent_record, wiggly, MIN_GAP, 0)


def neighbor_only_until(dataset, i, frames):
    """``dataset`` with record ``i`` cut to one neighbor (slot 1), present
    at its first ``frames`` frames only: its interaction entry there is 1,
    and no neighbor is present after them."""
    tensor, mask, interaction = (block.copy() for block in dataset.blocks)
    mask[i, 1:] = False
    mask[i, 1, :frames] = True
    tensor[i, 1:] *= mask[i, 1:, None, :]
    interaction[i, 1:] = mask[i, 1:]
    return Dataset(dataset.entries, tensor, mask, interaction)


def test_augment_refuses_a_record_with_a_frame_without_a_present_neighbor(donor):
    dataset = neighbor_only_until(corpus.build_archetype_corpus(1, 8, DGSFM), 0, 50)
    assert validate_arrays(*dataset.blocks) == [[]] * 3
    assert extraction.augmentable(dataset.mask).tolist() == [False, True, True]
    with pytest.raises(extraction.AugmentationError, match="a present neighbor at every frame"):
        extraction.augment_irrelevant(*(block[0] for block in dataset.blocks), donor, MIN_GAP, 0)


def test_augment_corpus_picks_only_records_with_a_neighbor_at_every_frame():
    dataset = neighbor_only_until(corpus.build_archetype_corpus(2, 8, DGSFM), 3, 99)
    children, pairs = corpus.augment_corpus(dataset, DGSFM.dt, len(dataset), MIN_GAP, 0)
    parents = [parent for parent, _ in pairs]
    assert len(children) == len(dataset) - 1 and dataset.entries[3]["record_id"] not in parents
    assert validate_arrays(*children.blocks) == [[]] * len(children)
    assert children.entries == [{**e, "record_id": e["record_id"] + ":aug", "augmentation_parent": e["record_id"]}
                                for e in dataset.entries if e["record_id"] in parents]


def test_augment_corpus_draws_the_donor_at_the_dataset_frame_time():
    dt = 0.1
    dataset = corpus.build_archetype_corpus(1, 8, dgsfm.DgsfmConfig(dt=dt))
    children, pairs = corpus.augment_corpus(dataset, dt, len(dataset), MIN_GAP, 0)
    index = {e["record_id"]: i for i, e in enumerate(dataset.entries)}
    assert len(pairs) == len(dataset)
    for child, (parent, _) in zip(zip(*children.blocks), pairs):
        slot = inserted_slot(child, tuple(block[index[parent]] for block in dataset.blocks))
        x, vx = child[0][slot, 0], child[0][slot, 2]
        np.testing.assert_allclose(np.diff(x), vx[:-1] * dt, rtol=1e-9)


def test_archetype_corpus_integrates_the_motion_at_the_dgsfm_frame_time():
    dt = 0.1
    dataset = corpus.build_archetype_corpus(1, 8, dgsfm.DgsfmConfig(dt=dt))
    for x, _, vx, _, ax, _ in dataset.tensor[:, 0]:
        np.testing.assert_allclose(np.diff(x), vx[:-1] * dt + 0.5 * ax[:-1] * dt * dt, rtol=1e-9)


@pytest.mark.parametrize("function, parameter", [
    (types.write_dataset, "dt"),
    (corpus.build_archetype_corpus, "n_per_class"),
    (corpus.build_archetype_corpus, "seed"),
    (corpus.build_archetype_corpus, "dgsfm_cfg"),
    (corpus.make_donor, "seed"),
    (corpus.make_donor, "dt"),
    (corpus.augment_corpus, "dt"),
    (corpus.augment_corpus, "n_augment"),
    (corpus.augment_corpus, "min_gap"),
    (corpus.augment_corpus, "seed"),
    (extraction.augment_irrelevant, "min_gap"),
    (extraction.augment_irrelevant, "seed"),
    (extraction.extract, "dgsfm_cfg"),
    (clustering.kmeans, "seed"),
])
def test_a_stage_value_takes_its_default_from_the_stage_config_only(function, parameter):
    assert inspect.signature(function).parameters[parameter].default is inspect.Parameter.empty
    assert not hasattr(types, "DEFAULT_DT")


def test_config_window_containment_validated():
    with pytest.raises(ValueError):
        extraction.ExtractionConfig(pre_frames=10, post_frames=10)
