"""Texture descriptors: LBP-family operators and the Weber descriptor.

All operators encode interior pixels only (margin ceil(R)+1 from each
border) over a circular neighborhood of P samples at radius R, with
off-grid samples bilinearly interpolated.  Histograms are normalized to
unit sum.  When extraction runs on an ON/OFF map pair, the two map
histograms are concatenated and jointly renormalized, doubling the
feature size.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .image import check_finite
from .retina import BfMaps

FAMILIES = ("lbp", "clbp", "clbc", "ltp", "wld")
# Largest neighbour count: the descriptor papers stop at P=24 (R=3), and
# sign/magnitude codes are packed into uint32.
MAX_P = 24
# Combination scheme -> histogram parts, concatenated in order.  A part is
# a joint histogram over the listed code planes, the first plane varying
# fastest: ("S", "M", "C") puts a pixel at s + B*m + B^2*c.
COMBINATION_SCHEMES = {
    "S": (("S",),),
    "M": (("M",),),
    "C": (("C",),),
    "S_M": (("S",), ("M",)),
    "S/M": (("S", "M"),),
    "S/C": (("S", "C"),),
    "M/C": (("M", "C"),),
    "S_M/C": (("S",), ("M", "C")),
    "M_S/C": (("M",), ("S", "C")),
    "S/M/C": (("S", "M", "C"),),
}
DEFAULT_LTP_T = 5.0 / 255.0

# Weber descriptor binning: T orientations, M excitation segments,
# S bins per segment.
WLD_T = 8
WLD_M = 6
WLD_S = 20


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Circular sampling geometry: P neighbors at radius R."""

    p: int = 8
    r: float = 1.0

    def __post_init__(self):
        if not 4 <= self.p <= MAX_P:
            raise ValueError(f"need 4 to {MAX_P} neighbors, got P={self.p}")
        if self.r <= 0:
            raise ValueError(f"radius must be positive, got R={self.r}")

    @property
    def margin(self):
        return math.ceil(self.r) + 1


@dataclass(frozen=True)
class Histogram:
    """Normalized frequency vector tagged with the producing scheme."""

    bins: np.ndarray
    scheme: str
    dims: tuple

    def __post_init__(self):
        if int(np.prod(self.dims)) != len(self.bins):
            raise ValueError(f"dims {self.dims} inconsistent with "
                             f"{len(self.bins)} bins")


@dataclass(frozen=True)
class DescriptorConfig:
    """Which descriptor to extract: family, combination scheme, geometry."""

    family: str = "lbp"
    scheme: str = "S"
    p: int = 8
    r: float = 1.0
    ltp_t: float = DEFAULT_LTP_T

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("lbp", "clbp", "clbc") and \
                self.scheme not in COMBINATION_SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        NeighborhoodSpec(self.p, self.r)  # rejects out-of-range P and R

    @property
    def spec(self):
        return NeighborhoodSpec(self.p, self.r)

    def tag(self):
        if self.family == "wld":
            return "WLD"
        if self.family == "ltp":
            return "LTP"
        if self.family == "lbp":
            return "LBP"
        return f"{self.family.upper()}_{self.scheme}"


@lru_cache(maxsize=None)
def neighbor_offsets(spec):
    """Read-only (P, 2) array of (drow, dcol) offsets of the P neighbors;
    neighbor k sits at angle 2*pi*k/P with (drow, dcol) = (-R sin, R cos).
    Near-integer offsets are snapped so exact grid hits skip interpolation."""
    k = np.arange(spec.p)
    theta = 2.0 * np.pi * k / spec.p
    dr = -spec.r * np.sin(theta)
    dc = spec.r * np.cos(theta)
    dr[np.abs(dr - np.rint(dr)) < 1e-9] = np.rint(dr[np.abs(dr - np.rint(dr)) < 1e-9])
    dc[np.abs(dc - np.rint(dc)) < 1e-9] = np.rint(dc[np.abs(dc - np.rint(dc)) < 1e-9])
    offsets = np.stack([dr, dc], axis=1)
    offsets.setflags(write=False)
    return offsets


def _check_size(img, spec):
    h, w = img.shape
    need = 2 * spec.margin + 1
    if h < need or w < need:
        raise ValueError(f"image {w}x{h} too small for R={spec.r} "
                         f"(need at least {need}x{need})")


def _shifted(img, m, dr, dc):
    """Interior window of img shifted by integer (dr, dc)."""
    h, w = img.shape
    return img[m + dr:h - m + dr, m + dc:w - m + dc]


def neighbor_stack(img, spec):
    """(P, H-2m, W-2m) array of neighbor samples for every interior pixel."""
    img = np.asarray(img, dtype=np.float64)
    _check_size(img, spec)
    m = spec.margin
    out = np.empty((spec.p, img.shape[0] - 2 * m, img.shape[1] - 2 * m))
    for k, (dr, dc) in enumerate(neighbor_offsets(spec)):
        r0, c0 = math.floor(dr), math.floor(dc)
        fr, fc = dr - r0, dc - c0
        if fr == 0.0 and fc == 0.0:
            out[k] = _shifted(img, m, r0, c0)
        else:  # accumulated in place, in the order of the written-out sum
            np.multiply((1 - fr) * (1 - fc), _shifted(img, m, r0, c0),
                        out=out[k])
            out[k] += (1 - fr) * fc * _shifted(img, m, r0, c0 + 1)
            out[k] += fr * (1 - fc) * _shifted(img, m, r0 + 1, c0)
            out[k] += fr * fc * _shifted(img, m, r0 + 1, c0 + 1)
    return out


def interior(img, spec):
    m = spec.margin
    return np.asarray(img, dtype=np.float64)[m:-m, m:-m]


def riu2_from_bits(bits):
    """riu2 labels straight from a (P, ...) boolean stack, bit k of the code
    being bits[k].

    A code with at most two circular 0/1 transitions is labelled by its
    popcount, every other code by P+1 (P+2 labels in all).  The rule is
    applied to the packed codes without a 2**P lookup table, so P=24 stays
    cheap.
    """
    p = bits.shape[0]
    if p > MAX_P:
        raise ValueError(f"P={p} exceeds the maximum of {MAX_P} neighbors")
    weights = np.left_shift(1, np.arange(p, dtype=np.uint32), dtype=np.uint32)
    weights = weights.reshape((p,) + (1,) * (bits.ndim - 1))
    codes = (bits * weights).sum(axis=0, dtype=np.uint32)
    rotated = ((codes << 1) | (codes >> (p - 1))) & np.uint32((1 << p) - 1)
    labels = np.bitwise_count(codes).astype(np.int32)
    np.putmask(labels, np.bitwise_count(codes ^ rotated) > 2, p + 1)
    return labels


def _count_bits(bits):
    return bits.sum(axis=0).astype(np.int32)


def _parts(scheme):
    try:
        return COMBINATION_SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown combination scheme {scheme!r}") from None


def _plane_bins(plane, b):
    return 2 if plane == "C" else b


def _scheme_size(scheme, b):
    return sum(math.prod(_plane_bins(plane, b) for plane in part)
               for part in _parts(scheme))


def _codes(img, spec, scheme, label):
    """The (S, M, C) planes of the completed-LBP family; a plane the scheme
    does not read is None and is never computed.

    Sign bits are [neighbor >= center] (ties encode 1); magnitude bits
    threshold |neighbor - center| against the image-wide mean magnitude;
    the center bit thresholds the center against the mean interior
    intensity.  `label` turns a (P, ...) bit stack into per-pixel labels.
    """
    planes = {plane for part in _parts(scheme) for plane in part}
    stack = neighbor_stack(img, spec)
    center = interior(img, spec)
    diffs = stack - center
    s = label(diffs >= 0) if "S" in planes else None
    m = None
    if "M" in planes:
        mags = np.abs(diffs)
        m = label(mags >= mags.mean())
    c = (center >= center.mean()).astype(np.int32) if "C" in planes else None
    return s, m, c


def clbp_codes(img, spec, scheme="S/M/C"):
    """Per-interior-pixel (sign label, magnitude label, center bit) with
    riu2 sign and magnitude labels; planes `scheme` does not read are None."""
    return _codes(img, spec, scheme, riu2_from_bits)


def clbc_codes(img, spec, scheme="S/M/C"):
    """Per-interior-pixel (sign count, magnitude count, center bit).

    Like the completed-LBP triple but encoding how many comparisons fire
    (0..P, so P+1 bins) instead of the bit pattern; planes `scheme` does
    not read are None.
    """
    return _codes(img, spec, scheme, _count_bits)


def _hist(labels, nbins):
    return np.bincount(labels.ravel(), minlength=nbins).astype(np.float64)


def _normalized(bins, scheme, dims):
    total = bins.sum()
    if total > 0:
        bins = bins / total
    return Histogram(bins=bins, scheme=scheme, dims=tuple(dims))


def build_histogram(s, m, c, scheme, nbins_per_code, tag=None):
    """Combine per-pixel codes into a normalized histogram.

    With B = nbins_per_code (P+2 for pattern labels, P+1 for counts):
    S or M -> B; S_M -> 2B; S/M -> B^2; S/C or M/C -> 2B; S/M/C -> 2B^2;
    S_M/C and M_S/C -> 3B.  Joint indices flatten row-major with the sign
    label fastest: index = s + B*m (+ B^2*c).  Planes the scheme does not
    read may be None.
    """
    b = nbins_per_code
    parts = _parts(scheme)
    codes = {"S": s, "M": m, "C": c}
    hists = []
    for part in parts:
        index, size = codes[part[0]], _plane_bins(part[0], b)
        for plane in part[1:]:
            index = index + size * codes[plane]
            size *= _plane_bins(plane, b)
        hists.append(_hist(index, size))
    bins = np.concatenate(hists)
    if len(parts) == 1:
        dims = tuple(_plane_bins(plane, b) for plane in parts[0])
    else:
        dims = (len(bins) // b, b)
    return _normalized(bins, tag or scheme, dims)


def clbp_histogram(img, spec, scheme="S"):
    s, m, c = clbp_codes(img, spec, scheme)
    return build_histogram(s, m, c, scheme, spec.p + 2, tag=f"CLBP_{scheme}")


def clbc_histogram(img, spec, scheme="S"):
    s, m, c = clbc_codes(img, spec, scheme)
    return build_histogram(s, m, c, scheme, spec.p + 1, tag=f"CLBC_{scheme}")


def ltp_histogram(img, spec, t=DEFAULT_LTP_T):
    """Ternary pattern: upper bits [n >= c+t], lower bits [n <= c-t],
    each riu2-mapped; the two histograms are concatenated (2(P+2) bins)."""
    if t < 0:
        raise ValueError(f"ltp threshold must be >= 0, got {t}")
    stack = neighbor_stack(img, spec)
    center = interior(img, spec)
    upper = riu2_from_bits(stack >= center + t)
    lower = riu2_from_bits(stack <= center - t)
    b = spec.p + 2
    bins = np.concatenate([_hist(upper, b), _hist(lower, b)])
    return _normalized(bins, "LTP", (2, b))


def wld_histogram(img, t_bins=WLD_T, m_bins=WLD_M, s_bins=WLD_S):
    """Weber descriptor over the 3x3 neighborhood.

    Differential excitation arctan(sum(neighbor - center) / center) is
    segmented into m_bins equal intervals of [-pi/2, pi/2] with s_bins
    sub-bins each; gradient orientation from the 3x3 cross is quantized to
    t_bins directions; the (segment, orientation, sub-bin) histogram is
    flattened segment-major.  The center is floored at 1/255 before the
    division.
    """
    spec = NeighborhoodSpec(p=8, r=1.0)
    img = np.asarray(img, dtype=np.float64)
    _check_size(img, spec)
    m = spec.margin
    center = interior(img, spec)
    ring = sum(_shifted(img, m, dr, dc)
               for dr in (-1, 0, 1) for dc in (-1, 0, 1)
               if (dr, dc) != (0, 0))
    xi = np.arctan((ring - 8.0 * center) / np.maximum(center, 1.0 / 255.0))
    seg_width = np.pi / m_bins
    pos = (xi + np.pi / 2.0) / seg_width
    seg = np.minimum(pos.astype(np.int32), m_bins - 1)
    sub = np.minimum(((pos - seg) * s_bins).astype(np.int32), s_bins - 1)
    # orientation from the 3x3 cross: vertical diff over horizontal diff
    dv = _shifted(img, m, 1, 0) - _shifted(img, m, -1, 0)
    dh = _shifted(img, m, 0, -1) - _shifted(img, m, 0, 1)
    theta = np.mod(np.arctan2(dv, dh), 2.0 * np.pi)
    t = np.mod(np.floor(theta / (2.0 * np.pi / t_bins) + 0.5).astype(np.int32),
               t_bins)
    idx = (seg * t_bins + t) * s_bins + sub
    bins = _hist(idx, t_bins * m_bins * s_bins)
    return _normalized(bins, "WLD", (m_bins, t_bins, s_bins))


def _single_image_histogram(img, config):
    if config.family in ("lbp", "clbp"):
        scheme = "S" if config.family == "lbp" else config.scheme
        return clbp_histogram(img, config.spec, scheme)
    if config.family == "clbc":
        return clbc_histogram(img, config.spec, config.scheme)
    if config.family == "ltp":
        return ltp_histogram(img, config.spec, config.ltp_t)
    if config.family == "wld":
        return wld_histogram(img)
    raise ValueError(f"unknown family {config.family!r}")


def feature_size(config, on_maps=False):
    """Histogram length implied by the descriptor config."""
    if config.family == "wld":
        n = WLD_T * WLD_M * WLD_S
    elif config.family == "ltp":
        n = 2 * (config.p + 2)
    else:
        b = config.p + 1 if config.family == "clbc" else config.p + 2
        scheme = "S" if config.family == "lbp" else config.scheme
        n = _scheme_size(scheme, b)
    return 2 * n if on_maps else n


def extract(source, config):
    """Extract the configured descriptor from an image or an ON/OFF map pair.

    For a map pair, each map is encoded as an ordinary image (its own
    thresholds) and the two histograms are concatenated and jointly
    renormalized.  A raw image with a NaN or infinite pixel is rejected.
    """
    if isinstance(source, BfMaps):
        hp = _single_image_histogram(source.plus, config)
        hm = _single_image_histogram(source.minus, config)
        bins = np.concatenate([hp.bins, hm.bins])
        total = bins.sum()
        if total > 0:
            bins = bins / total
        return Histogram(bins=bins, scheme=f"BF+{hp.scheme}",
                         dims=(2,) + hp.dims)
    check_finite(source)
    return _single_image_histogram(source, config)
