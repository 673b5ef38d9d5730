import math

import numpy as np
import pytest

from scenmine import corpus, extraction
from scenmine.types import (
    ChangePoint,
    CompositeLabel,
    LatState,
    LongState,
    N_SLOTS,
    T_OBS,
    validate_record,
)

from conftest import make_traj

ZERO_KL = CompositeLabel(LongState.ZERO, LatState.KEEP_LANE)
ACC_KL = CompositeLabel(LongState.ACCELERATE, LatState.KEEP_LANE)
ZERO_LC = CompositeLabel(LongState.ZERO, LatState.LANE_CHANGE)


def cp(t_c=200, after=ACC_KL, before=ZERO_KL):
    return ChangePoint(t_c=t_c, label_before=before, label_after=after)


def test_ego_alone_pads_all_neighbor_slots():
    ego = make_traj(n=400, vehicle_id=1)
    records, summary = extraction.extract([ego], {1: [cp()]}, extraction.ExtractionConfig())
    assert summary.extracted == 1
    record = records[0]
    assert record.tensor.presence_mask[0].all()
    assert not record.tensor.presence_mask[1:].any()
    assert np.all(record.tensor.values[1:] == 0.0)
    assert np.all(record.interaction.values[1:] == 0.0)
    assert validate_record(record) == []


def test_ten_neighbors_eight_nearest_by_distance():
    ego = make_traj(n=400, vehicle_id=0, x0=0.0)
    others = [
        make_traj(n=400, vehicle_id=i, x0=7.0 * i, y0=0.0) for i in range(1, 11)
    ]
    records, _ = extraction.extract(
        [ego] + others, {0: [cp()]}, extraction.ExtractionConfig()
    )
    record = records[0]
    # All vehicles share the same vx, so ordering by initial offset holds at t_c.
    distances = []
    for slot in range(1, N_SLOTS):
        assert record.tensor.presence_mask[slot].all()
        # Position stored relative to the ego anchor; recover distance at t_c.
        t_idx = 200 - (200 + extraction.ExtractionConfig().tensor_offset)
        dx = record.tensor.values[slot, 0, t_idx]
        dy = record.tensor.values[slot, 1, t_idx]
        distances.append(math.hypot(dx, dy))
    assert distances == sorted(distances)
    assert len(distances) == 8


def test_truncated_window_skipped():
    ego = make_traj(n=400, vehicle_id=1)
    records, summary = extraction.extract(
        [ego], {1: [cp(t_c=30)]}, extraction.ExtractionConfig()
    )
    assert records == []
    assert summary.skipped_window == 1


def test_ego_anchor_position_is_origin():
    ego = make_traj(n=400, vehicle_id=1, x0=500.0, y0=7.5)
    records, _ = extraction.extract([ego], {1: [cp()]}, extraction.ExtractionConfig())
    record = records[0]
    t_idx = -extraction.ExtractionConfig().tensor_offset  # anchor index in tensor
    assert record.tensor.values[0, 0, t_idx] == 0.0
    assert record.tensor.values[0, 1, t_idx] == 0.0


def test_partial_presence_masked_per_frame():
    ego = make_traj(n=400, vehicle_id=1)
    # Neighbor appears only from frame 210 on: present for the window tail.
    # x0 applies at its first frame; ego is near x = 210 by frame 210.
    late = make_traj(n=190, vehicle_id=2, first_frame=210, x0=230.0)
    records, _ = extraction.extract(
        [ego, late], {1: [cp()]}, extraction.ExtractionConfig()
    )
    mask = records[0].tensor.presence_mask[1]
    # Window covers frames 175..274; the neighbor exists from 210.
    assert not mask[: 210 - 175].any()
    assert mask[210 - 175 :].all()
    assert validate_record(records[0]) == []


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
    records, summary = extraction.extract([ego_lc], points, cfg)
    assert summary.filtered_class == 1
    assert len(records) == 1
    assert records[0].anchor.label_before.lateral == LatState.KEEP_LANE
    assert records[0].anchor.label_after.lateral == LatState.LANE_CHANGE


def test_extract_determinism():
    ego = make_traj(n=400, vehicle_id=0)
    others = [make_traj(n=400, vehicle_id=i, x0=9.0 * i) for i in range(1, 5)]
    a, _ = extraction.extract([ego] + others, {0: [cp()]}, extraction.ExtractionConfig())
    b, _ = extraction.extract([ego] + others, {0: [cp()]}, extraction.ExtractionConfig())
    assert np.array_equal(a[0].tensor.values, b[0].tensor.values)
    assert np.array_equal(a[0].interaction.values, b[0].interaction.values)


# ----------------------------- augmentation ---------------------------------

@pytest.fixture(scope="module")
def parent_record():
    records = corpus.build_archetype_corpus(n_per_class=1, seed=8)
    return records[0]


@pytest.fixture(scope="module")
def donor():
    return corpus.make_donor(seed=1)


def test_augment_inverse_reproduces_parent(parent_record, donor):
    child = extraction.augment_irrelevant(parent_record, donor, seed=0)
    new_slots = np.where(
        child.tensor.presence_mask.any(axis=1)
        & ~parent_record.tensor.presence_mask.any(axis=1)
    )[0]
    assert len(new_slots) == 1
    slot = new_slots[0]
    values = child.tensor.values.copy()
    mask = child.tensor.presence_mask.copy()
    inter = child.interaction.values.copy()
    values[slot] = 0.0
    mask[slot] = False
    inter[slot] = 0.0
    assert np.array_equal(values, parent_record.tensor.values)
    assert np.array_equal(mask, parent_record.tensor.presence_mask)
    assert np.array_equal(inter, parent_record.interaction.values)
    assert child.pseudo_class == parent_record.pseudo_class
    assert child.augmentation_parent == parent_record.record_id


def test_augment_min_gap_respected(parent_record, donor):
    child = extraction.augment_irrelevant(parent_record, donor, min_gap=80.0, seed=0)
    slot = np.where(
        child.tensor.presence_mask.any(axis=1)
        & ~parent_record.tensor.presence_mask.any(axis=1)
    )[0][0]
    ego = child.tensor.values[0, :2, :]
    ins = child.tensor.values[slot, :2, :]
    dist = np.hypot(ego[0] - ins[0], ego[1] - ins[1])
    assert dist.min() > 80.0


def test_augment_interaction_row_zero(parent_record, donor):
    child = extraction.augment_irrelevant(parent_record, donor, seed=0)
    slot = np.where(
        child.tensor.presence_mask.any(axis=1)
        & ~parent_record.tensor.presence_mask.any(axis=1)
    )[0][0]
    assert np.all(child.interaction.values[slot] == 0.0)
    assert validate_record(child) == []


def test_augment_no_free_slot_is_error(donor):
    ego = make_traj(n=400, vehicle_id=0)
    others = [make_traj(n=400, vehicle_id=i, x0=5.0 * i) for i in range(1, 10)]
    records, _ = extraction.extract(
        [ego] + others, {0: [cp()]}, extraction.ExtractionConfig()
    )
    assert records[0].tensor.presence_mask.all()
    with pytest.raises(extraction.AugmentationError):
        extraction.augment_irrelevant(records[0], donor, seed=0)


def test_augment_unqualified_donor_is_error(parent_record):
    wiggly = make_traj(
        n=400, vehicle_id=99, ay=np.full(400, 0.5), vy=np.full(400, 0.5)
    )
    with pytest.raises(extraction.AugmentationError):
        extraction.augment_irrelevant(parent_record, wiggly, seed=0)


def test_config_window_containment_validated():
    with pytest.raises(ValueError):
        extraction.ExtractionConfig(pre_frames=10, post_frames=10)
