"""Seeded inputs of the benchmark: frames with planted pedestrians, a model.

Every input derives from the ``--seed`` argument, so the same seed gives
the same frames and the same trained model.  The detector only ever sees
the generated arrays (or the ``.npz`` the trainer saved).

Frames are a cheap smooth background plus pedestrians rendered with
:func:`repro.dataset.render_pedestrian` at the window heights the two
default scales detect: 128 px (scale 1.0) and 154 px (scale 1.2).
:func:`repro.dataset.scene.make_street_scene` is not used: its
background blur is a dense 2-D filter whose cost grows with the square
of the frame size, so a single 1080p scene takes minutes to draw.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

from repro.core import DetectorConfig, MultiScalePedestrianDetector
from repro.dataset import (
    DatasetSizes,
    GroundTruthBox,
    SyntheticPedestrianDataset,
    render_pedestrian,
)
from repro.eval.matching import match_detections

#: The ``repro-das serve`` default threshold; every workload uses it.
THRESHOLD = 0.5

#: Window sizes (height, width) found at the two default scales.
WINDOWS = ((128, 64), (154, 77))

#: Training split of the per-seed model (positives, negatives).
TRAIN_SIZES = DatasetSizes(
    train_positive=200, train_negative=400, test_positive=1, test_negative=1
)

#: IoU at which a detection matches a planted pedestrian.
MATCH_IOU = 0.5


def detector_config() -> DetectorConfig:
    """``DetectorConfig`` defaults with the serving threshold."""
    return DetectorConfig(threshold=THRESHOLD)


def train_model(seed: int, path: Path) -> None:
    """Train the seed's model with the repo's own trainer; save ``.npz``."""
    dataset = SyntheticPedestrianDataset(seed=seed, sizes=TRAIN_SIZES)
    detector = MultiScalePedestrianDetector.train(
        dataset.train_windows(), detector_config()
    )
    detector.save_model(path)


@dataclasses.dataclass
class Frame:
    """One generated frame and the pedestrians planted in it."""

    image: np.ndarray
    boxes: list[GroundTruthBox]


def _background(rng: np.random.Generator, height: int, width: int
                ) -> np.ndarray:
    """Smooth random shading (bilinear upsample of a coarse grid) + noise."""
    gh, gw = height // 96 + 2, width // 96 + 2
    coarse = rng.uniform(0.3, 0.7, size=(gh, gw))
    rows = np.interp(np.arange(height), np.linspace(0, height - 1, gh),
                     np.arange(gh))
    cols = np.interp(np.arange(width), np.linspace(0, width - 1, gw),
                     np.arange(gw))
    r0 = np.minimum(rows.astype(int), gh - 2)
    c0 = np.minimum(cols.astype(int), gw - 2)
    fr = (rows - r0)[:, None]
    fc = (cols - c0)[None, :]
    top = coarse[r0][:, c0] * (1 - fc) + coarse[r0][:, c0 + 1] * fc
    bottom = coarse[r0 + 1][:, c0] * (1 - fc) + coarse[r0 + 1][:, c0 + 1] * fc
    image = top * (1 - fr) + bottom * fr
    image += rng.normal(0.0, 0.02, size=image.shape)
    return image


def make_frame(rng: np.random.Generator, height: int, width: int,
               n_pedestrians: int) -> Frame:
    """A ``height x width`` frame with up to ``n_pedestrians`` planted.

    Pedestrians alternate between the two window sizes and fill
    disjoint bands left to right, so no two overlap; each is placed on
    the cell grid of the scale that finds it.  Fewer are planted when
    the frame has no room for more.
    """
    image = _background(rng, height, width)
    boxes: list[GroundTruthBox] = []
    band_h = WINDOWS[-1][0] + 16
    band, col = 0, 8
    for i in range(n_pedestrians):
        wh, ww = WINDOWS[i % len(WINDOWS)]
        step = 8 * wh / 128.0
        if col + ww + 24 > width:
            band, col = band + 1, 8
        band_top = band * band_h
        if band_top + wh > height or col + ww > width:
            break
        left = int(step * np.ceil((col + rng.uniform(0, 24)) / step))
        top = int(step * np.ceil(
            (band_top + rng.uniform(0, min(band_h, height - band_top) - wh))
            / step))
        if left + ww > width or top + wh > height:
            break
        patch, _ = render_pedestrian(rng, wh, ww)
        image[top:top + wh, left:left + ww] = patch
        boxes.append(GroundTruthBox(top=top, left=left, height=wh, width=ww))
        col = left + ww + 16
    return Frame(image=np.clip(image, 0.0, 1.0), boxes=boxes)


def make_frames(seed: int, count: int, height: int, width: int,
                n_pedestrians: int) -> list[Frame]:
    """``count`` distinct frames of one geometry from ``seed``."""
    rng = np.random.default_rng([seed, height, width])
    return [make_frame(rng, height, width, n_pedestrians)
            for _ in range(count)]


def nan_frame(height: int, width: int) -> np.ndarray:
    """A corrupt frame the detector must reject (counted as failed)."""
    return np.full((height, width), np.nan)


def match(detections, boxes: list[GroundTruthBox]) -> tuple[int, int]:
    """``(matched planted pedestrians, unmatched detections)``."""
    result = match_detections(list(detections), boxes, MATCH_IOU)
    return len(result.matched), len(result.unmatched_detections)


if __name__ == "__main__":
    # ``python3 frames.py <seed> <model.npz>``: train in a process of its
    # own, so training never shows in a measured process's peak RSS.
    train_model(int(sys.argv[1]), Path(sys.argv[2]))
