"""Multimodal (image/audio/video) column stages.

Media payloads are opaque ``binary`` columns with typed metadata
(``media_type``, ``width``/``height`` or ``sample_rate``/``duration``).
No decode / feature-extraction library is installed, so the decode step
is STUBBED: it produces a deterministic fake (bytes-derived) so the
Ray-side plumbing (schema, batch sizing, actor signature, output layout)
is real and tested end to end.

Scale notes: media rows are heavy → small ``batch_size`` (default 16) so
batch × concurrency stays inside a worker heap; the actor pool loads its
"model" once per actor in ``__init__``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("media_type", pa.string()),     # "image" | "audio"
    ("payload", pa.binary()),
    ("width", pa.int32()),           # image meta (0 for audio)
    ("height", pa.int32()),
    ("sample_rate", pa.int32()),     # audio meta (0 for image)
])


def synth_media_table(n: int = 64, seed: int = 42) -> pa.Table:
    """Deterministic fake media corpus (random bytes + plausible metadata)."""
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["image", "audio"], n, p=[0.7, 0.3])
    payloads, width, height, rate = [], [], [], []
    for k in kinds:
        size = int(rng.integers(1_000, 20_000))
        payloads.append(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
        if k == "image":
            width.append(int(rng.integers(64, 1024)))
            height.append(int(rng.integers(64, 1024)))
            rate.append(0)
        else:
            width.append(0)
            height.append(0)
            rate.append(int(rng.choice([16000, 22050, 44100])))
    return pa.table({
        "media_id": pa.array(np.arange(n, dtype=np.int64)),
        "media_type": pa.array(kinds.astype(object), pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "width": pa.array(width, pa.int32()),
        "height": pa.array(height, pa.int32()),
        "sample_rate": pa.array(rate, pa.int32()),
    })


def _decode_stub(payload: bytes, media_type: str) -> np.ndarray:
    # deterministic fake decode: bytes → pseudo-signal
    arr = np.frombuffer(payload[:4096], dtype=np.uint8).astype(np.float32)
    return arr / 255.0


class MediaFeatureExtractor:
    """Actor-pool stage: decode (stubbed) → fixed-size feature vector.

    __init__ = the once-per-actor model load (here: a deterministic random
    projection matrix standing in for a real encoder); __call__ = batched
    inference.  Run with map_batches(..., concurrency=N, batch_size=16).
    """

    FEATURE_DIM = 32

    def __init__(self, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.proj = rng.normal(size=(4096, self.FEATURE_DIM)).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        for payload, mtype in zip(batch["payload"].to_pylist(),
                                  batch["media_type"].to_pylist()):
            sig = _decode_stub(payload, mtype)
            padded = np.zeros(4096, dtype=np.float32)
            padded[:len(sig)] = sig[:4096]
            feats.append(padded @ self.proj)
        mat = np.stack(feats) if feats else np.empty((0, self.FEATURE_DIM),
                                                     np.float32)
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(mat.reshape(-1), pa.float32()), self.FEATURE_DIM)
        return pa.table({
            "media_id": batch["media_id"],
            "media_type": batch["media_type"],
            "embedding": emb,
        })


class ImageResizeStub:
    """Actor-pool resize stage: passes payload through, rewrites metadata
    (the real kernel would decode → resize → re-encode; the Ray contract —
    binary in, binary out, metadata columns updated — is identical)."""

    def __init__(self, target: int = 256):
        self.target = target

    def __call__(self, batch: pa.Table) -> pa.Table:
        is_img = pa.compute.equal(batch["media_type"], "image")
        w = np.where(is_img.to_numpy(zero_copy_only=False),
                     self.target, batch["width"].to_numpy(zero_copy_only=False))
        h = np.where(is_img.to_numpy(zero_copy_only=False),
                     self.target, batch["height"].to_numpy(zero_copy_only=False))
        batch = batch.set_column(batch.schema.get_field_index("width"),
                                 "width", pa.array(w.astype(np.int32)))
        return batch.set_column(batch.schema.get_field_index("height"),
                                "height", pa.array(h.astype(np.int32)))


def media_features(media_ds, *, concurrency=2, batch_size: int = 16):
    return media_ds.map_batches(
        MediaFeatureExtractor, batch_format="pyarrow",
        batch_size=batch_size, concurrency=concurrency)


def resize_images(media_ds, *, target: int = 256, concurrency=2,
                  batch_size: int = 16):
    return media_ds.map_batches(
        ImageResizeStub, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, fn_constructor_kwargs={"target": target})


class FrameSampleStub:
    """Actor-pool frame-sampling stage (video → every-kth-frame rows).

    flat_map-shaped: one input row expands to ceil(n_frames/stride) frame
    rows.  The payload is treated as a fixed-size-frame container (the
    real kernel would demux with an av library — absent here, so
    frames are deterministic byte slices and the Ray contract — binary
    in, MORE binary rows out, frame index metadata — is real and
    tested).  Every payload is frame-sliced regardless of
    ``media_type`` — filter the input to video rows first (the real
    demux would reject non-video containers at decode time)."""

    FRAME_BYTES = 1024

    def __init__(self, stride: int = 4):
        self.stride = stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, idxs, frames = [], [], []
        for mid, payload in zip(batch["media_id"].to_pylist(),
                                batch["payload"].to_pylist()):
            n_frames = max(1, len(payload) // self.FRAME_BYTES)
            for fi in range(0, n_frames, self.stride):
                ids.append(mid)
                idxs.append(fi)
                frames.append(
                    payload[fi * self.FRAME_BYTES:(fi + 1) * self.FRAME_BYTES])
        return pa.table({
            "media_id": pa.array(np.asarray(ids, np.int64)),
            "frame_idx": pa.array(np.asarray(idxs, np.int32)),
            "frame": pa.array(frames, pa.binary()),
        })


def sample_frames(media_ds, *, stride: int = 4, concurrency=2,
                  batch_size: int = 16):
    """Every-stride-th frame of each media row (fan-out stage: output has
    MORE rows than input — small batch_size bounds the expansion held in
    one worker heap at a time)."""
    return media_ds.map_batches(
        FrameSampleStub, batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency,
        fn_constructor_kwargs={"stride": stride})
