import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from scenmine import cli, cvqvae, ingest
from scenmine.ingest import REQUIRED_COLUMNS, IntegrityError, ParseError
from scenmine.types import FEATURE_NAMES, N_CLASSES, N_FEATURES, N_SLOTS, T_OBS, Dataset, Trajectory


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
        features=np.stack([x, y, vx, vy, ax, ay]),
        lane_id=np.full(n, lane_id),
    )


def assert_same_trajectories(a, b):
    """Bit-for-bit equality of two trajectory lists: order, vehicle ids,
    recording ids, dt, first frames, and the dtype, shape and bits of the
    feature block and the lane ids."""
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert (ta.vehicle_id, ta.recording_id, ta.dt, ta.first_frame) == (
            tb.vehicle_id, tb.recording_id, tb.dt, tb.first_frame)
        for name in ("features", "lane_id"):
            x, y = getattr(ta, name), getattr(tb, name)
            assert x.dtype == y.dtype and np.array_equal(x.view(np.int64), y.view(np.int64)), name


def load_from_memo(workdir) -> list[Trajectory]:
    """The trajectories ``cli._load_tracks`` returns with the CSV parser
    switched off, so that they can only come from ``tracks.bin``."""
    def no_parse(*args, **kwargs):
        raise AssertionError("tracks.csv parsed although tracks.bin is its memo")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "parse_tracks", no_parse)
        return cli._load_tracks(Path(workdir))[1]


def parse_workdir(workdir) -> list[Trajectory]:
    """The trajectories parsed from a workdir's tracks.csv and meta.json."""
    workdir = Path(workdir)
    return ingest.read_tracks_csv(workdir / "tracks.csv", ingest.read_meta_json(workdir / "meta.json"))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def quantize(z, codebook):
    """The codebook index and entry that ``cvqvae._quantize_batch`` picks
    for the single latent ``z``: the nearest by squared Euclidean distance,
    ties to the lowest index."""
    q = int(cvqvae._quantize_batch(np.asarray(z, dtype=float)[None], codebook)[0])
    return q, codebook[q].copy()


def take(dataset, index) -> Dataset:
    """The records of ``dataset`` at ``index``, a slice or a list of
    positions, in that order."""
    entries = dataset.entries[index] if isinstance(index, slice) else [dataset.entries[i] for i in index]
    return Dataset(entries, *(block[index] for block in dataset.blocks))


def concat(*datasets) -> Dataset:
    """The records of ``datasets``, one after another."""
    return Dataset([e for d in datasets for e in d.entries],
                   *(np.concatenate(blocks) for blocks in zip(*(d.blocks for d in datasets))))


def arrays(dataset):
    """The tensors, masks, one-hot pseudo-classes and interaction matrices
    of ``dataset``, as ``train`` passes them to ``cvqvae.training_rows``."""
    return dataset.tensor, dataset.mask, dataset.one_hot(), dataset.interaction


def train_arrays(inputs, masks, class_targets, interaction_targets, cfg):
    """``cvqvae.train_rows`` of the ``cvqvae.training_rows`` of the arrays:
    the two calls that ``train`` makes."""
    return cvqvae.train_rows(cvqvae.training_rows(inputs, masks, class_targets, interaction_targets), cfg)


def encode_dataset(dataset, params) -> np.ndarray:
    """(M, d) latents of ``dataset``'s records from the trained encoder, as
    ``cluster`` encodes rows of a dataset's tensor and mask blocks."""
    return cvqvae.encode(dataset.tensor, dataset.mask, params)


def train_dataset(dataset, cfg):
    """``train_arrays`` of ``dataset``'s blocks, as ``train`` trains."""
    return train_arrays(*arrays(dataset), cfg)


def grad_check(dataset, params, cfg, epsilon=1e-3, n_checks=120, seed=0) -> float:
    """``cvqvae.grad_check_arrays`` on the arrays of ``dataset``."""
    return cvqvae.grad_check_arrays(*arrays(dataset), params, cfg, epsilon, n_checks, seed)


def encode_dataset_v1(dataset, dt) -> bytes:
    """The bytes the JSON-lines writer of ``scenmine-dataset-v1`` wrote for
    the records of ``dataset``: one header line, then one JSON object per
    record. Kept as the oracle that pins the record values of the binary
    format to the old golden digests."""
    header = {
        "format": "scenmine-dataset-v1",
        "n_slots": N_SLOTS,
        "n_features": N_FEATURES,
        "t_obs": T_OBS,
        "n_classes": N_CLASSES,
        "dt": dt,
    }
    lines = [json.dumps(header, separators=(",", ":"))]
    for entry, tensor, mask, interaction in zip(dataset.entries, *dataset.blocks):
        lines.append(json.dumps({
            "record_id": entry["record_id"],
            "recording_id": entry["recording_id"],
            "vehicle_id": entry["vehicle_id"],
            "anchor": {"t_c": entry["t_c"], "before": entry["before"], "after": entry["after"]},
            "pseudo_class": entry["pseudo_class"],
            "tensor": tensor.ravel().tolist(),
            "interaction": interaction.ravel().tolist(),
            "presence_mask": mask.ravel().astype(int).tolist(),
            "augmentation_parent": entry["augmentation_parent"],
        }, separators=(",", ":")))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def item_size(header: dict, name: str) -> int:
    """The bytes per value of block ``name`` of a file with ``header``:
    flags 1, checkpoint weights 4 (<f4), every other block 8."""
    if name == "mask":
        return 1
    return 4 if header["format"] == cvqvae.CHECKPOINT_FORMAT_VERSION and not name.startswith("feature_") else 8


def block_offset(blob: bytes, name: str) -> int:
    """Byte offset of block ``name`` in a dataset or checkpoint file: after
    the header line and the blocks before it (see ``item_size``)."""
    offset = blob.index(b"\n") + 1
    header = json.loads(blob[:offset])
    for block, shape in header["arrays"]:
        if block == name:
            return offset
        offset += int(np.prod(shape)) * item_size(header, block)
    raise KeyError(name)


def edit_header(edit):
    """Rewrite of a ``write_blocks`` file whose header object ``edit``
    changes in place; the header is written back compact and key-sorted, as
    ``write_blocks`` writes it, and the blocks stay as they are."""
    def rewrite(blob: bytes) -> bytes:
        end = blob.index(b"\n")
        header = json.loads(blob[:end])
        edit(header)
        return json.dumps(header, separators=(",", ":"), sort_keys=True).encode() + blob[end:]
    return rewrite


def overwrite_value(block: str, value: bytes, index: int = 0):
    """Damage of a dataset or checkpoint file that overwrites value
    ``index`` of ``block`` with the bytes ``value``."""
    def damage(blob: bytes) -> bytes:
        at = block_offset(blob, block) + index * len(value)
        return blob[:at] + value + blob[at + len(value):]
    return damage


def parse_tracks_v1(stream, meta) -> list[Trajectory]:
    """The ``csv.reader`` parser of ``tracks.csv`` that ``ingest.parse_tracks``
    replaced: ``int()``/``float()`` on every field of every non-empty row,
    with ``read_tracks_csv``'s mapping of a csv error to ParseError. Kept as
    the oracle of the column-wise reader."""
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty tracks file")
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise ParseError(f"missing mandatory columns: {', '.join(missing)}")
        at = {name: i for i, name in enumerate(header)}
        i_frame, i_id, i_x, i_y, i_vx, i_vy, i_ax, i_ay, i_lane = (at[c] for c in REQUIRED_COLUMNS)
        keys, values = [], []
        for line_no, row in enumerate(filter(None, reader), start=2):
            try:
                keys.append((int(row[i_id]), int(row[i_frame]), int(row[i_lane])))
                values.append((float(row[i_x]), float(row[i_y]), float(row[i_vx]),
                               float(row[i_vy]), float(row[i_ax]), float(row[i_ay])))
            except (IndexError, ValueError) as exc:
                raise ParseError(f"line {line_no}: malformed row ({exc})") from exc
    except csv.Error as exc:
        raise ParseError(f"not a CSV file ({exc})") from exc
    if not keys:
        return []

    try:
        key_cols = np.array(keys, dtype=np.int64).reshape(-1, 3)
    except OverflowError as exc:
        raise ParseError(f"an id, frame or laneId does not fit in 64 bits ({exc})") from exc
    order = np.lexsort((key_cols[:, 1], key_cols[:, 0]))
    vids, frames, lanes = key_cols[order].T.copy()
    feats = np.array(values, dtype=np.float64).reshape(-1, len(FEATURE_NAMES))[order].T.copy()

    same_vehicle = vids[1:] == vids[:-1]
    gaps = np.flatnonzero(same_vehicle & (frames[1:] != frames[:-1] + 1))
    if gaps.size:
        raise IntegrityError(f"vehicle {vids[gaps[0]]}: gap in frame sequence")
    non_finite = np.argwhere(~np.isfinite(feats.T))
    if non_finite.size:
        raise IntegrityError(f"vehicle {vids[non_finite[0][0]]}: non-finite value")
    if (frames < 0).any():
        raise IntegrityError("negative frame index")

    starts = np.concatenate([[0], np.flatnonzero(~same_vehicle) + 1])
    ends = np.append(starts[1:], len(vids))
    return [
        Trajectory(
            vehicle_id=int(vids[lo]),
            recording_id=meta.recording_id,
            dt=meta.dt,
            first_frame=int(frames[lo]),
            features=feats[:, lo:hi],
            lane_id=lanes[lo:hi],
        )
        for lo, hi in zip(starts.tolist(), ends.tolist())
    ]


def encode_tracks_v1(trajectories) -> bytes:
    """The bytes the ``csv.writer`` writer of ``tracks.csv`` wrote for
    ``trajectories``. Kept as the oracle of ``ingest.write_tracks_csv``."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(REQUIRED_COLUMNS)
    for traj in trajectories:
        frames = range(traj.first_frame, traj.last_frame + 1)
        floats = [map(repr, getattr(traj, name).tolist()) for name in FEATURE_NAMES]
        writer.writerows(
            (frame, traj.vehicle_id, *row, lane)
            for frame, *row, lane in zip(frames, *floats, traj.lane_id.tolist())
        )
    return out.getvalue().encode("utf-8")
