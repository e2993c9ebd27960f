"""Synthetic paired low/normal fixture scenes with simulated events.

Each scene renders two frames of gradient-filled squares drifting over a
gradient background, keeps the second frame as ground truth, simulates
events from the frame pair's log-brightness changes, and derives the
low-light input by an eighth of the exposure (mirroring an ND8 filter)
plus additive Gaussian noise.
"""
from __future__ import annotations

import os

import numpy as np

from .events import simulate_events, write_events
from .image import write_image

WINDOW_US = 100_000
THETA = 0.15  # contrast threshold of the simulated events
ND_SCALE = 0.125
NOISE_SIGMA = 0.02


def render_frame(size: int, offsets: list[tuple[int, int]]) -> np.ndarray:
    """Gradient background with two gradient-filled squares at offsets."""
    ramp = np.linspace(0.1, 0.45, size)
    frame = np.empty((size, size, 3))
    frame[:, :, 0] = ramp[:, None]
    frame[:, :, 1] = ramp[None, :]
    frame[:, :, 2] = 0.5 * (ramp[:, None] + ramp[None, :])
    side = size // 4
    fill = np.linspace(0.55, 0.85, side)
    for idx, (oy, ox) in enumerate(offsets):
        patch = np.empty((side, side, 3))
        patch[:, :, 0] = fill[None, :] if idx % 2 == 0 else fill[:, None]
        patch[:, :, 1] = fill[::-1][None, :]
        patch[:, :, 2] = fill[None, :] * 0.9
        frame[oy:oy + side, ox:ox + side] = patch
    return np.clip(frame, 0.0, 1.0)


def make_scene(rng: np.random.Generator, size: int = 64
               ) -> tuple[np.ndarray, np.ndarray]:
    """Two frames with the squares shifted a few pixels between them."""
    side = size // 4
    lim = size - side
    oy1 = int(rng.integers(0, lim // 2))
    ox1 = int(rng.integers(0, lim // 2))
    oy2 = int(rng.integers(lim // 2, lim))
    ox2 = int(rng.integers(lim // 2, lim))
    dy = int(rng.integers(2, 6))
    dx = int(rng.integers(2, 6))
    frame_a = render_frame(size, [(oy1, ox1), (oy2, ox2)])
    frame_b = render_frame(size, [(min(oy1 + dy, lim), min(ox1 + dx, lim)),
                                  (max(oy2 - dy, 0), max(ox2 - dx, 0))])
    return frame_a, frame_b


def lowlight_of(frame: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """ND8-style exposure cut plus sensor noise, clipped to [0,1]."""
    noisy = frame * ND_SCALE + rng.normal(0.0, NOISE_SIGMA, size=frame.shape)
    return np.clip(noisy, 0.0, 1.0)


def fixtures(out_dir: str, seed: int, count: int = 2, size: int = 64) -> str:
    """Write ``count`` scenes plus a manifest; returns the manifest path."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    lines = []
    for k in range(count):
        scene_dir = os.path.join(out_dir, f"scene_{k}")
        os.makedirs(scene_dir, exist_ok=True)
        frame_a, frame_b = make_scene(rng, size)
        stream = simulate_events(frame_a, frame_b, 0, WINDOW_US, THETA)
        low = lowlight_of(frame_b, rng)
        write_image(os.path.join(scene_dir, "low.ppm"), low)
        write_image(os.path.join(scene_dir, "gt.ppm"), frame_b)
        write_events(stream, os.path.join(scene_dir, "events.evst"))
        lines.append(f"scene_{k}/low.ppm\tscene_{k}/events.evst\t"
                     f"scene_{k}/gt.ppm\t0\t{WINDOW_US}")
    manifest = os.path.join(out_dir, "manifest.txt")
    with open(manifest, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return manifest
