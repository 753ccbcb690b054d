"""Psychoacoustic bin-to-band partition and spectral filtering.

Bins of the half spectrum are grouped into M critical bands on the
Bark scale. Suppression is computed per band and converted back to
per-bin gains by interpolation, which is applied to the complex
spectrum with the original phase kept. The layers take plain arrays:
bins (framing.analyze) and their per-bin powers (framing.bin_power).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def bark_of_hz(freq_hz):
    """Bark(f) = 13*atan(0.00076*f) + 3.5*atan((f/7500)^2)."""
    f = np.asarray(freq_hz, dtype=float)
    return 13.0 * np.arctan(0.00076 * f) + 3.5 * np.arctan((f / 7500.0) ** 2)


@dataclass(frozen=True, eq=False)
class BandPlan:
    """Immutable bin-to-band partition table.

    edges has num_bands + 1 ascending bin indices with edges[0] = 0 and
    edges[-1] = fft_len/2 + 1; band j covers bins edges[j]..edges[j+1]-1.
    center_bins holds the (possibly half-integer) midpoint bin of each
    band, centers_hz the same in Hz. Bin b interpolates the gains of
    bands left_band[b] and right_band[b] with weights left_weight[b]
    and right_weight[b].
    """

    num_bands: int
    edges: np.ndarray
    center_bins: np.ndarray
    centers_hz: np.ndarray
    widths: np.ndarray
    left_band: np.ndarray
    right_band: np.ndarray
    left_weight: np.ndarray
    right_weight: np.ndarray
    fft_len: int
    sample_rate_hz: int


def build_band_plan(fft_len: int, sample_rate_hz: int, num_bands: int) -> BandPlan:
    """Partition bins 0..fft_len/2 into num_bands Bark-spaced bands.

    The total Bark range of the bin centers is split into num_bands
    equal intervals; each interior edge is placed at the first bin
    whose Bark value crosses its interval boundary. A forward pass then
    shifts edges so every band keeps at least one bin, and a backward
    pass clamps them against the fixed top edge, so the result is a
    full disjoint cover of the half spectrum.
    """
    nbins = fft_len // 2 + 1
    if num_bands < 1:
        raise ConfigError(f"num_bands must be at least 1, got {num_bands}")
    if num_bands > nbins:
        raise ConfigError(
            f"num_bands must not exceed the {nbins} available bins, got {num_bands}"
        )
    freqs = np.arange(nbins) * sample_rate_hz / fft_len
    z = bark_of_hz(freqs)
    bounds = z[0] + (z[-1] - z[0]) * np.arange(num_bands + 1) / num_bands

    edges = np.empty(num_bands + 1, dtype=np.int64)
    edges[0] = 0
    edges[-1] = nbins
    edges[1:-1] = np.searchsorted(z, bounds[1:-1])
    for j in range(1, num_bands + 1):
        if edges[j] <= edges[j - 1]:
            edges[j] = edges[j - 1] + 1
    for j in range(num_bands - 1, 0, -1):
        if edges[j] >= edges[j + 1]:
            edges[j] = edges[j + 1] - 1

    center_bins = (edges[:-1] + edges[1:] - 1) / 2.0
    centers_hz = center_bins * sample_rate_hz / fft_len
    # float, as every use divides or scales float powers by it
    widths = np.diff(edges).astype(float)
    # fractional band position of every bin: bins outside the outer
    # centers sit on the edge band, the rest between two neighbours
    pos = np.interp(np.arange(nbins), center_bins, np.arange(num_bands))
    left = pos.astype(np.int64)
    right = np.minimum(left + 1, num_bands - 1)
    frac = pos - left
    left_weight = 1.0 - frac
    for arr in (edges, center_bins, centers_hz, widths, left, right, left_weight, frac):
        arr.flags.writeable = False
    return BandPlan(
        num_bands=num_bands,
        edges=edges,
        center_bins=center_bins,
        centers_hz=centers_hz,
        widths=widths,
        left_band=left,
        right_band=right,
        left_weight=left_weight,
        right_weight=frac,
        fft_len=fft_len,
        sample_rate_hz=sample_rate_hz,
    )


def pool_to_bands(power: np.ndarray, plan: BandPlan) -> np.ndarray:
    """Pool per-bin power (framing.bin_power) into band magnitudes, per
    frame.

    Band magnitude is the RMS of the bin magnitudes, i.e. the square
    root of the mean per-bin power, which keeps the downstream SNR
    independent of band width.
    """
    sums = np.add.reduceat(power, plan.edges[:-1], axis=-1)
    sums /= plan.widths
    return np.sqrt(sums, out=sums)


def expand_to_bins(band_gains: np.ndarray, plan: BandPlan) -> np.ndarray:
    """Convert M band gains to fft_len/2 + 1 bin gains, per frame.

    Linear interpolation across the band center bins; bins outside the
    first and last centers take the edge band's gain unchanged.
    """
    g = np.asarray(band_gains, dtype=float)
    # numpy's fastest gathers: for a block an index on the last axis
    # (take runs about twice as long), for a lone frame a plain index
    # (an ellipsis costs more than the gather)
    if g.ndim == 1:
        out, from_right = g[plan.left_band], g[plan.right_band]
    else:
        out, from_right = g[..., plan.left_band], g[..., plan.right_band]
    out *= plan.left_weight
    from_right *= plan.right_weight
    out += from_right
    return out


def apply_gains(bins: np.ndarray | None, power: np.ndarray | None, bin_gains: np.ndarray) -> None:
    """Scale each complex bin by its real gain in place, keeping the
    phase, and its power by the gain's square; either array may be
    None, which leaves it alone."""
    if bins is not None:
        bins *= bin_gains
    if power is not None:
        # real gains leave phase alone, so the power scales by the
        # square, in the order of power * g * g
        power *= bin_gains
        power *= bin_gains
