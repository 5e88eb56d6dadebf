"""Seeded workload inputs.  The same seed always gives the same bytes.

Every frame is distinct (its own crop and noise), so the server's output
cache never sees a repeated digest and is bypassed by construction.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.datasets import (
    PROFILES,
    PatchSampler,
    SyntheticDataset,
    encode_netpbm,
    generate_image,
)

#: (H, W) of the colour frames: one tile, then 2x3, 2x4 and 3x5 tiles of 96.
#: 180x320 comes twice in five, so the median request is a 180x320 frame
#: and not whichever of two sizes a run's noise favours, and the p90 falls
#: inside the 270x480 frames.
RGB_SIZES = ((96, 96), (135, 240), (180, 320), (180, 320), (270, 480))
OFFLINE_SIZE = (256, 256)
TRAIN_BATCH, TRAIN_PATCH = 32, 64

_BASES = 6


def _bases(rng: np.random.Generator, h: int, w: int) -> List[np.ndarray]:
    return [generate_image(h, w, rng, PROFILES["div2k"]) for _ in range(_BASES)]


def _frame(rng: np.random.Generator, bases: List[np.ndarray], h: int,
           w: int) -> np.ndarray:
    base = bases[int(rng.integers(len(bases)))]
    y = int(rng.integers(base.shape[0] - h + 1))
    x = int(rng.integers(base.shape[1] - w + 1))
    crop = base[y:y + h, x:x + w]
    return np.clip(crop + rng.normal(0.0, 0.02, crop.shape), 0.0, 1.0)


def rgb_frames(seed: int, count: int, stream: int = 0,
               sizes: Tuple[Tuple[int, int], ...] = RGB_SIZES,
               order_seed: Optional[int] = None) -> List[bytes]:
    """``count`` distinct binary PPM payloads; ``stream`` separates the
    frames of different uses of one seed.  Sizes come in shuffles of
    ``sizes`` drawn from ``order_seed`` (default: ``seed``), so every run
    sends the same mix of sizes."""
    rng = np.random.default_rng([seed, 2, stream])
    hmax = max(s[0] for s in sizes) + 32
    wmax = max(s[1] for s in sizes) + 32
    bases = _bases(rng, hmax, wmax)
    order_rng = np.random.default_rng(
        [seed if order_seed is None else order_seed, 4])
    order = np.concatenate([order_rng.permutation(len(sizes))
                            for _ in range(-(-count // len(sizes)))])
    out = []
    for k in order[:count]:
        h, w = sizes[int(k)]
        luma = _frame(rng, bases, h, w)
        tint = rng.uniform(0.6, 1.0, 3)
        rgb = luma[..., None] * tint + rng.normal(0.0, 0.02, (h, w, 3))
        out.append(encode_netpbm(np.clip(rgb, 0.0, 1.0)))
    return out


def offline_frames(seed: int, count: int,
                   size: Tuple[int, int] = OFFLINE_SIZE) -> List[np.ndarray]:
    """``count`` distinct grey float32 frames of ``size``."""
    rng = np.random.default_rng([seed, 3])
    h, w = size
    bases = _bases(rng, h + 32, w + 32)
    return [_frame(rng, bases, h, w).astype(np.float32) for _ in range(count)]


def train_batches(seed: int, batch: int = TRAIN_BATCH,
                  patch: int = TRAIN_PATCH) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Endless (LR, HR) batches from ``repro.datasets`` (Fig 3 protocol)."""
    dataset = SyntheticDataset(
        "div2k", n_images=8, size=(2 * patch + 64, 2 * patch + 64), scale=2,
        seed=seed,
    )
    sampler = PatchSampler(dataset, scale=2, patch_size=patch,
                           crops_per_image=64, batch_size=batch, seed=seed)
    while True:
        yield from sampler.batches(1)
