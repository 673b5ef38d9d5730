import json

import numpy as np
import pytest

from scenmine.types import FEATURE_NAMES, N_CLASSES, N_FEATURES, N_SLOTS, T_OBS, Trajectory


def make_traj(
    ax=None,
    vy=None,
    n=None,
    vehicle_id=1,
    recording_id="test",
    dt=0.04,
    first_frame=0,
    vx0=25.0,
    x0=0.0,
    y0=0.0,
    lane_id=2,
    ay=None,
):
    """Trajectory with prescribed per-frame ax and vy; x, vx, y integrated."""
    if n is None:
        n = len(ax) if ax is not None else len(vy)
    ax = np.zeros(n) if ax is None else np.asarray(ax, dtype=float)
    vy = np.zeros(n) if vy is None else np.asarray(vy, dtype=float)
    ay = np.zeros(n) if ay is None else np.asarray(ay, dtype=float)
    vx = vx0 + np.concatenate([[0.0], np.cumsum(ax[:-1]) * dt])
    x = x0 + np.concatenate([[0.0], np.cumsum(vx[:-1]) * dt])
    y = y0 + np.concatenate([[0.0], np.cumsum(vy[:-1]) * dt])
    return Trajectory(
        vehicle_id=vehicle_id,
        recording_id=recording_id,
        dt=dt,
        first_frame=first_frame,
        x=x,
        y=y,
        vx=vx,
        vy=vy,
        ax=ax,
        ay=ay,
        lane_id=np.full(n, lane_id),
    )


def assert_same_trajectories(a, b):
    """Exact equality of two trajectory lists: ids, dt, frames and columns."""
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert (ta.vehicle_id, ta.recording_id, ta.dt, ta.first_frame) == (
            tb.vehicle_id, tb.recording_id, tb.dt, tb.first_frame)
        for name in FEATURE_NAMES + ("lane_id",):
            assert np.array_equal(getattr(ta, name), getattr(tb, name)), name


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def encode_dataset_v1(records, dt) -> bytes:
    """The bytes the JSON-lines writer of ``scenmine-dataset-v1`` wrote for
    ``records``: one header line, then one JSON object per record. Kept as the
    oracle that pins the record values of the binary format to the old
    golden digests."""
    header = {
        "format": "scenmine-dataset-v1",
        "n_slots": N_SLOTS,
        "n_features": N_FEATURES,
        "t_obs": T_OBS,
        "n_classes": N_CLASSES,
        "dt": dt,
    }
    lines = [json.dumps(header, separators=(",", ":"))]
    for record in records:
        lines.append(json.dumps({
            "record_id": record.record_id,
            "recording_id": record.recording_id,
            "vehicle_id": record.vehicle_id,
            "anchor": {
                "t_c": record.anchor.t_c,
                "before": record.anchor.label_before.to_string(),
                "after": record.anchor.label_after.to_string(),
            },
            "pseudo_class": record.pseudo_class.index,
            "tensor": record.tensor.values.ravel().tolist(),
            "interaction": record.interaction.values.ravel().tolist(),
            "presence_mask": record.tensor.presence_mask.ravel().astype(int).tolist(),
            "augmentation_parent": record.augmentation_parent,
        }, separators=(",", ":")))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def block_offset(blob: bytes, name: str) -> int:
    """Byte offset of block ``name`` in a dataset file: after the header line
    and the blocks before it (the mask takes one byte per value, the others
    eight)."""
    offset = blob.index(b"\n") + 1
    for block, shape in json.loads(blob[:offset])["arrays"]:
        if block == name:
            return offset
        offset += int(np.prod(shape)) * (1 if block == "mask" else 8)
    raise KeyError(name)


def overwrite_value(block: str, value: bytes, index: int = 0):
    """Damage of a dataset file that overwrites value ``index`` of ``block``
    with the bytes ``value``."""
    def damage(blob: bytes) -> bytes:
        at = block_offset(blob, block) + index * len(value)
        return blob[:at] + value + blob[at + len(value):]
    return damage
