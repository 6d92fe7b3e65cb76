"""Image quality metrics: PSNR, SSIM, RMSE.

These are the rendering-fidelity and frame-similarity metrics used by the
paper (Tab. 2/6/7 report PSNR; Fig. 5 uses RMSE and SSIM to quantify
non-keyframe redundancy).
"""

from __future__ import annotations

import numpy as np


def _to_float(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.ndim not in (2, 3):
        raise ValueError(f"expected HxW or HxWxC image, got shape {image.shape}")
    return image


def rmse(image_a: np.ndarray, image_b: np.ndarray) -> float:
    """Root-mean-square pixel difference between two images in [0, 1]."""
    a, b = _to_float(image_a), _to_float(image_b)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def format_db(value: float, width: int = 5) -> str:
    """Format a dB metric for display; ``nan`` (no data) renders as ``n/a``.

    ``SLAMResult.evaluate_psnr`` returns ``nan`` when no finite PSNR exists —
    an empty or degenerate render must show up as missing data, never as a
    perfect score.  ``width`` right-pads so tabular columns stay aligned.
    """
    text = "n/a" if np.isnan(value) else f"{value:.2f}"
    return text.rjust(width)


def psnr(image_a: np.ndarray, image_b: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (higher is better).

    Identical images return ``inf``.
    """
    err = rmse(image_a, image_b)
    if err <= 0.0:
        return float("inf")
    return float(20.0 * np.log10(data_range / err))


def ssim(
    image_a: np.ndarray,
    image_b: np.ndarray,
    data_range: float = 1.0,
    window: int = 7,
) -> float:
    """Mean structural similarity index (Wang et al., 2004) over a uniform window.

    Colour images are averaged over channels.  Uses the standard constants
    ``K1 = 0.01`` and ``K2 = 0.03``.
    """
    a, b = _to_float(image_a), _to_float(image_b)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 3:
        channels = [
            ssim(a[..., ch], b[..., ch], data_range=data_range, window=window)
            for ch in range(a.shape[2])
        ]
        return float(np.mean(channels))

    # SciPy is imported here, not at module level: only Fig. 5's similarity
    # profile computes SSIM, and every importer of ``repro.slam`` would
    # otherwise pay for ``scipy.ndimage``.
    from scipy.ndimage import uniform_filter

    window = min(window, min(a.shape))
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2

    mu_a = uniform_filter(a, size=window)
    mu_b = uniform_filter(b, size=window)
    mu_a_sq = mu_a * mu_a
    mu_b_sq = mu_b * mu_b
    mu_ab = mu_a * mu_b

    sigma_a = uniform_filter(a * a, size=window) - mu_a_sq
    sigma_b = uniform_filter(b * b, size=window) - mu_b_sq
    sigma_ab = uniform_filter(a * b, size=window) - mu_ab

    numerator = (2.0 * mu_ab + c1) * (2.0 * sigma_ab + c2)
    denominator = (mu_a_sq + mu_b_sq + c1) * (sigma_a + sigma_b + c2)
    ssim_map = numerator / np.maximum(denominator, 1e-12)
    return float(np.clip(np.mean(ssim_map), -1.0, 1.0))
