"""Multimodal stage plumbing tests (decode stubbed, Ray wiring real)."""

import numpy as np
import pyarrow as pa

from series_correction_project_updated_ray.stages.multimodal import (
    ImageResizeStub, MediaFeatureExtractor, media_features, resize_images,
    synth_media_table)


def test_synth_media_schema():
    t = synth_media_table(32)
    assert t.schema.names == ["media_id", "media_type", "payload", "width",
                              "height", "sample_rate"]
    assert len(t) == 32
    # deterministic
    t2 = synth_media_table(32)
    assert t["payload"][0].as_py() == t2["payload"][0].as_py()


def test_feature_extractor_direct():
    ex = MediaFeatureExtractor()
    out = ex(synth_media_table(8))
    assert out.column_names == ["media_id", "media_type", "embedding"]
    emb = np.asarray(out["embedding"].combine_chunks().flatten()).reshape(8, -1)
    assert emb.shape == (8, 32)
    out2 = MediaFeatureExtractor()(synth_media_table(8))
    emb2 = np.asarray(out2["embedding"].combine_chunks().flatten()).reshape(8, -1)
    np.testing.assert_array_equal(emb, emb2)


def test_media_pipeline_actor_pool(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(synth_media_table(48))
    feats = media_features(ds, concurrency=2, batch_size=16).to_pandas()
    assert len(feats) == 48
    resized = resize_images(rd.from_arrow(synth_media_table(48)),
                            target=128).to_pandas()
    imgs = resized[resized["media_type"] == "image"]
    auds = resized[resized["media_type"] == "audio"]
    assert (imgs["width"] == 128).all() and (imgs["height"] == 128).all()
    assert (auds["width"] == 0).all()


def test_frame_sampling_expansion(ray_session):
    import ray.data
    from series_correction_project_updated_ray.stages.multimodal import (
        FrameSampleStub, sample_frames, synth_media_table)
    tbl = synth_media_table(32, seed=9)
    out = sample_frames(ray.data.from_arrow(tbl), stride=4).to_pandas()
    # expected expansion computed driver-side
    want = 0
    for p in tbl["payload"].to_pylist():
        n_frames = max(1, len(p) // FrameSampleStub.FRAME_BYTES)
        want += len(range(0, n_frames, 4))
    assert len(out) == want
    assert (out["frame_idx"] % 4 == 0).all()
    # frames are exact byte slices of the source payloads
    p0 = tbl["payload"][0].as_py()
    f0 = out[(out["media_id"] == 0) & (out["frame_idx"] == 0)]["frame"].iloc[0]
    assert bytes(f0) == p0[:FrameSampleStub.FRAME_BYTES]
