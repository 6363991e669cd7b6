"""Seatek wide-file source (reference operators S1/S2/S7/S9, P1).

The reference's on-disk corpus is headerless whitespace text, one file per
(series, year): ``S<series>_Y<index>.txt`` — 33 columns, 32 float sensor
readings + a monotonically increasing integer timestamp in the LAST column
(/root/reference/data/S26_Y01.txt; README.md:229-232).  The reference
loader names column 0 "Time (Seconds)" and the rest Value2..ValueN
(/root/reference/scripts/batch_correction.py:390-397) — i.e. in compat
mode column 0 (sensor 1) plays the time axis and only Value2 is corrected.

Ray-Data-first design: the file list is discovered once on the driver
(cheap, single listdir — the reference's own optimization), then
``read_binary_files`` streams file payloads to a vectorized parser
``map_batches`` stage that emits either the wide compat table or the
normalized long form ``(series, year_idx, sensor_id, t, value)``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.frames import arrow_table
from ..functions.parsing import parse_raw_filename


def discover_files(data_dir: str, series: list[str] | None = None,
                   year_range: tuple[int, int] | None = None
                   ) -> list[tuple[str, int, str]]:
    """Sorted [(series_id, year_idx, path)] via one listdir + regex
    (batch_correction.py:249-359 semantics: filter by series set and year
    index range, deterministic sort)."""
    out = []
    for name in os.listdir(data_dir):
        parsed = parse_raw_filename(name)
        if parsed is None:
            continue
        sid, yidx = parsed
        if series is not None and sid not in series:
            continue
        if year_range is not None and not (year_range[0] <= yidx <= year_range[1]):
            continue
        out.append((sid, yidx, os.path.join(data_dir, name)))
    return sorted(out)


def parse_seatek_text(payload: bytes) -> np.ndarray | None:
    """Whitespace text → float ndarray (rows × cols); comment lines (#) and
    blank lines skipped; None for empty files.  Best-effort numeric: a
    non-numeric token poisons only its column (reference `_safe_numeric`
    keeps such columns as objects; long-form output drops them)."""
    text = payload.decode("utf-8", "replace")
    rows = []
    width = None
    for line in text.splitlines():
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        parts = s.split()
        if width is None:
            width = len(parts)
        rows.append(parts)
    if not rows:
        return None
    df = pd.DataFrame(rows)
    for c in df.columns:
        df[c] = pd.to_numeric(df[c], errors="coerce")
    return df.to_numpy(dtype=np.float64)


class SeatekParser:
    """map_batches stage over read_binary_files(include_paths=True) output.

    mode="long": (series, year_idx, sensor_id [1-based], t, value) rows
      with t from the LAST column (the real timestamp axis).
    mode="compat": reference-loader shape — columns
      "Time (Seconds)", "Value2".."ValueN" plus (series, year_idx),
      reproducing the quirk that column 0 is named time.
    """

    def __init__(self, mode: str = "long"):
        assert mode in ("long", "compat")
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        paths = batch["path"].to_pylist()
        payloads = batch["bytes"].to_pylist()
        if self.mode == "long":
            return self._long(paths, payloads)
        return self._compat(paths, payloads)

    def _long(self, paths, payloads) -> pa.Table:
        cols = {"series": [], "year_idx": [], "sensor_id": [], "t": [],
                "value": []}
        for path, payload in zip(paths, payloads):
            parsed = parse_raw_filename(os.path.basename(path))
            if parsed is None:
                continue
            sid, yidx = parsed
            arr = parse_seatek_text(payload)
            if arr is None or arr.shape[1] < 2:
                continue
            t = arr[:, -1]
            sensors = arr[:, :-1]
            n, k = sensors.shape
            cols["series"].append(np.repeat(
                np.array([sid], dtype=object), n * k))
            cols["year_idx"].append(np.full(n * k, yidx, dtype=np.int32))
            cols["sensor_id"].append(
                np.tile(np.arange(1, k + 1, dtype=np.int32), n))
            cols["t"].append(np.repeat(t, k))
            cols["value"].append(sensors.reshape(-1))
        if not cols["t"]:
            return pa.table({
                "series": pa.array([], pa.string()),
                "year_idx": pa.array([], pa.int32()),
                "sensor_id": pa.array([], pa.int32()),
                "t": pa.array([], pa.float64()),
                "value": pa.array([], pa.float64())})
        return pa.table({
            "series": pa.array(np.concatenate(cols["series"]), pa.string()),
            "year_idx": pa.array(np.concatenate(cols["year_idx"])),
            "sensor_id": pa.array(np.concatenate(cols["sensor_id"])),
            "t": pa.array(np.concatenate(cols["t"])),
            "value": pa.array(np.concatenate(cols["value"]))})

    def _compat(self, paths, payloads) -> pa.Table:
        frames = []
        for path, payload in zip(paths, payloads):
            parsed = parse_raw_filename(os.path.basename(path))
            if parsed is None:
                continue
            sid, yidx = parsed
            arr = parse_seatek_text(payload)
            if arr is None:
                continue
            cols = {"series": np.repeat(np.array([sid], dtype=object),
                                        len(arr)),
                    "year_idx": np.full(len(arr), yidx, dtype=np.int32),
                    "Time (Seconds)": arr[:, 0]}
            for j in range(1, arr.shape[1]):
                cols[f"Value{j + 1}"] = arr[:, j]
            frames.append(pd.DataFrame(cols))
        if not frames:
            return pa.table({"series": pa.array([], pa.string()),
                             "year_idx": pa.array([], pa.int32())})
        return arrow_table(pd.concat(frames, ignore_index=True))


def load_raw_frame(path: str) -> pd.DataFrame:
    """Reference ``_load_raw_data`` semantics for fallback-mode inputs
    (batch_correction.py:362-405): whitespace text, no header, ``#``
    comments and blank lines skipped; per-column ALL-or-nothing numeric
    conversion (a single bad token keeps the whole column as strings —
    unlike :func:`parse_seatek_text`'s coerce-to-NaN, this preserves the
    reference's "non-numeric column is not a value candidate" behavior);
    columns named ``Time (Seconds)``, ``Value2``..``ValueN``.  Empty files
    return an empty frame."""
    with open(path, "rb") as f:
        text = f.read().decode("utf-8", "replace")
    rows = [s.split() for s in (ln.strip() for ln in text.splitlines())
            if s and not s.startswith("#")]
    if not rows:
        return pd.DataFrame()
    df = pd.DataFrame(rows)
    for c in df.columns:
        try:
            df[c] = pd.to_numeric(df[c])
        except (ValueError, TypeError):
            pass
    df.columns = ["Time (Seconds)",
                  *[f"Value{i}" for i in range(2, len(df.columns) + 1)]]
    return df


def read_seatek(data_dir: str, mode: str = "long",
                series: list[str] | None = None,
                year_range: tuple[int, int] | None = None):
    """Dataset over a Seatek raw directory."""
    import ray.data
    files = discover_files(data_dir, series, year_range)
    paths = [p for _, _, p in files]
    if not paths:
        raise FileNotFoundError(f"no S*_Y*.txt files under {data_dir}")
    ds = ray.data.read_binary_files(paths, include_paths=True)
    return ds.map_batches(SeatekParser(mode), batch_format="pyarrow")


def write_seatek_fixture(data_dir: str, series_ids=("26", "27"),
                         n_years: int = 3, rows: int = 60, seed: int = 42,
                         n_sensors: int = 32, step: int = 13090):
    """FIXTURES.md §F2 generator: headerless 33-col files with the real
    dropout pattern (~20% exact 0.00) and strictly increasing last-column
    timestamps; injects one outlier and one level jump per file so the
    correction pipeline has work to do."""
    os.makedirs(data_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    for sid in series_ids:
        for y in range(1, n_years + 1):
            sensors = np.clip(rng.normal(5.0, 0.5, (rows, n_sensors)), 0, None)
            sensors[rng.random((rows, n_sensors)) < 0.2] = 0.0
            # column 0 plays "time" in compat mode: keep it tie-free (and
            # distinct at the 2-decimal file precision) so the reference's
            # non-stable sort and our stable sort agree
            # (FIXTURES.md §F2; /root/reference/scripts/processor.py:565)
            sensors[:, 0] = np.round(
                1.0 + np.arange(rows) * 0.13 + rng.uniform(0, 0.06, rows), 2)
            r_out = rng.integers(10, rows - 10)
            sensors[r_out, 1] += 25.0                      # Value3 outlier
            sensors[rows // 2:, 1] += rng.uniform(2, 4)    # Value3 jump
            t0 = (y - 1) * rows * step
            t = t0 + np.arange(rows) * step
            path = os.path.join(data_dir, f"S{sid}_Y{y:02d}.txt")
            with open(path, "w") as f:
                for i in range(rows):
                    vals = " ".join(f"{x:.2f}" for x in sensors[i])
                    f.write(f"{vals} {t[i]}\n")
    return data_dir
