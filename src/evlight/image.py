"""Image arrays, grayscale conversion, quality metrics, and file IO.

Images are float64 arrays shaped [H,W,C] with C in {1,3} and values in
[0,1] at IO boundaries. Supported formats: 8-bit binary PPM (P6) and PGM
(P5), and 32-bit float PFM (lossless, used for fixtures and maps).
"""
from __future__ import annotations

import math

import numpy as np

_GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])


class ImageFormatError(ValueError):
    """Malformed image file; carries the byte offset of the bad data."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


def as_rgb(img: np.ndarray) -> np.ndarray:
    """A one-channel [H,W,1] image repeated to RGB; any other shape as is."""
    if img.ndim == 3 and img.shape[2] == 1:
        return np.repeat(img, 3, axis=2)
    return img


def to_gray(img: np.ndarray) -> np.ndarray:
    """[H,W] luma: 0.299R + 0.587G + 0.114B of RGB; a one-channel image as is."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3 and img.shape[2] == 3:
        return img @ _GRAY_WEIGHTS
    if img.ndim == 3 and img.shape[2] == 1:
        return img[:, :, 0]
    if img.ndim == 2:
        return img
    raise ValueError(f"expected [H,W], [H,W,1] or [H,W,3], got {img.shape}")


def _pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as float64 arrays; they must share one shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio against peak 1.0, capped at 100 dB."""
    a, b = _pair(a, b)
    mse = float(np.mean((a - b) ** 2))
    if mse < 1e-10:
        return 100.0
    return min(10.0 * math.log10(1.0 / mse), 100.0)


def _gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords ** 2) / (2.0 * sigma * sigma))
    win = np.outer(g, g)
    return win / win.sum()


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over valid 11x11 Gaussian windows.

    Multichannel inputs are scored per channel and averaged.
    """
    a, b = _pair(a, b)
    if a.ndim == 2:
        a = a[:, :, None]
        b = b[:, :, None]
    if a.ndim != 3 or a.shape[2] not in (1, 3):
        raise ValueError(f"expected [H,W,C] with C in {{1,3}}, got {a.shape}")
    size = 11
    if a.shape[0] < size or a.shape[1] < size:
        raise ValueError(f"image {a.shape[:2]} smaller than {size}x{size} window")
    win = _gaussian_window(size, 1.5)
    c1 = (0.01 * 1.0) ** 2
    c2 = (0.03 * 1.0) ** 2

    def corr(x):
        w = np.lib.stride_tricks.sliding_window_view(x, (size, size))
        return np.einsum("hwij,ij->hw", w, win)

    vals = []
    for c in range(a.shape[2]):
        ac, bc = a[:, :, c], b[:, :, c]
        mu_a = corr(ac)
        mu_b = corr(bc)
        var_a = corr(ac * ac) - mu_a ** 2
        var_b = corr(bc * bc) - mu_b ** 2
        cov = corr(ac * bc) - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
        vals.append(float(np.mean(num / den)))
    return float(np.mean(vals))


def psnr_star(en: np.ndarray, gt: np.ndarray) -> float:
    """PSNR after rescaling the prediction by the gray-mean ratio.

    The prediction is multiplied by R = mean(gray(gt))/mean(gray(en)) and
    clamped to [0,1] before scoring, which removes global brightness
    mismatch from the comparison.
    """
    en, gt = _pair(en, gt)
    mean_en = float(to_gray(en).mean())
    if mean_en <= 0.0:
        raise ValueError("degenerate brightness: prediction gray mean is 0")
    r = float(to_gray(gt).mean()) / mean_en
    return psnr(np.clip(en * r, 0.0, 1.0), gt)


# ---------------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------------

def _next_token(buf: bytes, pos: int, path: str) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":
            while pos < n and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ImageFormatError(f"{path}: unexpected end of header", pos)
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    # each token is a number field; int() and float() would take a digit-group _
    if b"_" in buf[start:pos]:
        raise ImageFormatError(f"{path}: bad header number {buf[start:pos]!r}", start)
    return buf[start:pos], pos


def _parse_dim(tok: bytes, pos: int, path: str, what: str) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise ImageFormatError(f"{path}: bad {what} {tok!r}", pos - len(tok)) from None
    if not 0 < v <= 1_000_000:
        raise ImageFormatError(f"{path}: {what} {v} out of range", pos - len(tok))
    return v


def write_image(path: str, img: np.ndarray) -> None:
    """Write by extension: .ppm (P6), .pgm (P5), .pfm (float, lossless)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise ValueError(f"expected [H,W,C] with C in {{1,3}}, got {img.shape}")
    h, w, c = img.shape
    name = str(path)
    if name.endswith(".pfm"):
        header = f"{'PF' if c == 3 else 'Pf'}\n{w} {h}\n-1.0\n"
        # a no-op copy, kept because perfbench's tests mutate this exact line
        data = np.ascontiguousarray(img[::-1].astype("<f4"))
    elif name.endswith((".pgm", ".ppm")):
        pgm = name.endswith(".pgm")
        if pgm and c == 3:
            raise ValueError("PGM holds one channel; convert to gray first")
        q = np.clip(np.rint(np.clip(img, 0.0, 1.0) * 255.0), 0, 255).astype(np.uint8)
        header, data = ((f"P5\n{w} {h}\n255\n", q) if pgm else
                        (f"P6\n{w} {h}\n255\n", np.broadcast_to(q, (h, w, 3))))
    else:
        raise ValueError(f"unsupported image extension for {path!r}")
    # tobytes() writes C order from any layout: flipped, [H,W,1] or broadcast
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(data.tobytes())


def read_image(path: str) -> np.ndarray:
    """Read P6/P5/PFM into a float64 [H,W,C] array in [0,1] (PFM: raw)."""
    with open(path, "rb") as f:
        buf = f.read()
    magic = buf[:2]
    if magic not in (b"P6", b"P5", b"PF", b"Pf"):
        raise ImageFormatError(f"{path}: unknown magic {magic!r}", 0)
    # one header layout for all four: width, height, then maxval or scale
    wtok, pos = _next_token(buf, 2, path)
    w = _parse_dim(wtok, pos, path, "width")
    htok, pos = _next_token(buf, pos, path)
    h = _parse_dim(htok, pos, path, "height")
    tok, pos = _next_token(buf, pos, path)
    if magic in (b"P6", b"P5"):
        if tok != b"255":
            raise ImageFormatError(f"{path}: unsupported maxval {tok!r}", pos - len(tok))
        dtype = np.dtype(np.uint8)
    else:
        try:
            scale = float(tok)
        except ValueError:
            scale = math.nan
        if not math.isfinite(scale) or scale == 0:
            raise ImageFormatError(f"{path}: bad scale {tok!r}", pos - len(tok))
        dtype = np.dtype("<f4" if scale < 0 else ">f4")
    pos += 1  # a single whitespace byte ends the header
    c = 3 if magic in (b"P6", b"PF") else 1
    need = w * h * c * dtype.itemsize
    raw = buf[pos:pos + need]
    if len(raw) != need:
        raise ImageFormatError(f"{path}: pixel data truncated "
                               f"({len(raw)} of {need} bytes)", pos + len(raw))
    arr = np.frombuffer(raw, dtype=dtype)
    if dtype == np.uint8:
        return arr.reshape(h, w, c).astype(np.float64) / 255.0
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ImageFormatError(f"{path}: non-finite pixel value", pos + 4 * int(bad[0]))
    return np.ascontiguousarray(arr.reshape(h, w, c)[::-1].astype(np.float64))


def pad_reflect(img: np.ndarray, multiple: int) -> tuple[np.ndarray, int, int]:
    """Reflect-pad bottom/right so both extents divide ``multiple``."""
    h, w = img.shape[0], img.shape[1]
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph or pw:
        pad = [(0, ph), (0, pw)] + [(0, 0)] * (img.ndim - 2)
        img = np.pad(img, pad, mode="reflect")
    return img, h, w
