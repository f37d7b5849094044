"""Texture descriptors: LBP-family operators and the Weber descriptor.

All operators encode interior pixels only (margin ceil(R)+1 from each
border) over a circular neighborhood of P samples at radius R, with
off-grid samples bilinearly interpolated.  Histograms are normalized to
unit sum.  When extraction runs on an ON/OFF map pair, the two map
histograms are concatenated and jointly renormalized, doubling the
feature size.

Every function takes one image or a stack whose last two axes are the
image, and encodes each image of a stack alone: per-image results gain
the stack's leading axes, so a histogram of an (N, H, W) stack is an
(N, bins) array.  A NaN or infinite pixel raises a NonFiniteImageError
whose index is the first such image's place in the stack.
"""

import math
import threading
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
# Largest P whose riu2 labels come from a 2**P table (256 KB at P=16).
_TABLE_MAX_P = 16
# One block's budget: the neighbour samples (P per interior pixel) of the
# images described together, 2 MB as a float64 stack.  A plane-loop scratch
# array of up to that many cells is kept per thread and reused from block to
# block.
BLOCK_CELLS = 1 << 18

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
        if not 0 < self.r < math.inf:
            raise ValueError(f"radius r must be in (0, inf), got R={self.r}")

    @property
    def margin(self):
        return math.ceil(self.r) + 1


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
        if self.family in ("clbp", "clbc"):
            if self.scheme not in COMBINATION_SCHEMES:
                raise ValueError(f"unknown scheme {self.scheme!r}")
        elif self.scheme != "S":  # lbp is CLBP's S plane; ltp, wld read none
            raise ValueError(f"family {self.family!r} takes only scheme "
                             f"'S', got {self.scheme!r}")
        NeighborhoodSpec(self.p, self.r)  # rejects out-of-range P and R
        if self.family == "wld" and (self.p, self.r) != (8, 1.0):
            raise ValueError(f"family 'wld' reads only the 3x3 ring, P=8 and "
                             f"R=1, got P={self.p} and R={self.r:g}")
        if not 0 <= self.ltp_t < math.inf:
            raise ValueError(f"ltp_t must be in [0, inf), got {self.ltp_t}")

    @property
    def spec(self):
        return NeighborhoodSpec(self.p, self.r)

    @property
    def bins_per_code(self):
        """Labels per sign or magnitude code: P+1 counts for CLBC, P+2
        riu2 patterns otherwise."""
        return self.p + 1 if self.family == "clbc" else self.p + 2


@lru_cache(maxsize=None)
def neighbor_offsets(spec):
    """Read-only (P, 2) array of (drow, dcol) offsets of the P neighbors;
    neighbor k sits at angle 2*pi*k/P with (drow, dcol) = (-R sin, R cos).
    Near-integer offsets are snapped so exact grid hits skip interpolation."""
    k = np.arange(spec.p)
    theta = 2.0 * np.pi * k / spec.p
    offsets = np.stack([-spec.r * np.sin(theta), spec.r * np.cos(theta)],
                       axis=1)
    snapped = np.rint(offsets)
    offsets = np.where(np.abs(offsets - snapped) < 1e-9, snapped, offsets)
    offsets.setflags(write=False)
    return offsets


_scratch = threading.local()


def _scratch_array(slot, shape, dtype):
    """Uninitialised `shape` array of `dtype` in this thread's scratch
    `slot`, valid until the slot is asked for again, so it must not leave
    the function that fills it.  The slot keeps its largest request of up
    to BLOCK_CELLS cells; a larger one gets a fresh array that is not kept,
    so a one-off large image is not held in memory."""
    cells = math.prod(shape)
    if cells > BLOCK_CELLS:
        return np.empty(shape, dtype)
    dtype = np.dtype(dtype)
    nbytes = cells * dtype.itemsize
    buf = getattr(_scratch, slot, None)
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        setattr(_scratch, slot, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def _shifted(img, m, dr, dc):
    """Interior window of each image shifted by integer (dr, dc)."""
    h, w = img.shape[-2:]
    return img[..., m + dr:h - m + dr, m + dc:w - m + dc]


def _run_bounds(shape, spec):
    """(first, n) of the run over the flattened C-order stack that goes
    from the first interior pixel to the last: neighbour (dr, dc) of flat
    pixel j is flat pixel j + dr*W + dc, so each neighbour's samples over
    the run are the run shifted by that much.  Cells of the run outside the
    interior are junk; every neighbour read stays inside the stack, as the
    margin exceeds the radius."""
    m = spec.margin
    first = m * shape[-1] + m
    return first, math.prod(shape) - 2 * first


def _neighbor_planes(img, spec):
    """Yield (run, plane) for each of the P neighbours of a C-contiguous
    stack: its samples over the run (see _run_bounds) and at the interior
    pixels as an (..., H-2m, W-2m) view of the same cells.

    An integer offset is a slice of the stack.  An interpolated one is
    accumulated, in the order of the written-out bilinear sum, into one
    scratch buffer that the next neighbour overwrites, so a caller reads
    each plane before asking for the next.
    """
    m = spec.margin
    h, w = img.shape[-2:]
    flat = img.reshape(-1)
    first, n = _run_bounds(img.shape, spec)
    buf = _scratch_array("plane", img.shape, np.float64)
    run, plane = buf.reshape(-1)[:n], buf[..., :h - 2 * m, :w - 2 * m]

    def shifted(dr, dc):
        return flat[first + dr * w + dc:first + dr * w + dc + n]

    for dr, dc in neighbor_offsets(spec):
        r0, c0 = math.floor(dr), math.floor(dc)
        fr, fc = dr - r0, dc - c0
        if fr == 0.0 and fc == 0.0:
            yield shifted(r0, c0), _shifted(img, m, r0, c0)
            continue
        np.multiply((1 - fr) * (1 - fc), shifted(r0, c0), out=run)
        run += (1 - fr) * fc * shifted(r0, c0 + 1)
        run += fr * (1 - fc) * shifted(r0 + 1, c0)
        run += fr * fc * shifted(r0 + 1, c0 + 1)
        yield run, plane


def _checked(img, spec):
    """The stack as C-contiguous float64, once no image has a NaN or
    infinite pixel (see check_finite) and each is large enough for spec."""
    img = np.ascontiguousarray(img, dtype=np.float64)
    check_finite(img)
    h, w = img.shape[-2:]
    need = 2 * spec.margin + 1
    if h < need or w < need:
        raise ValueError(f"image {w}x{h} too small for R={spec.r} "
                         f"(need at least {need}x{need})")
    return img


def neighbor_stack(img, spec):
    """(..., P, H-2m, W-2m) array of neighbor samples for every interior
    pixel, image-major: the P samples of one image are contiguous."""
    img = _checked(img, spec)
    m = spec.margin
    h, w = img.shape[-2:]
    out = np.empty(img.shape[:-2] + (spec.p, h - 2 * m, w - 2 * m))
    for k, (_, plane) in enumerate(_neighbor_planes(img, spec)):
        out[..., k, :, :] = plane
    return out


def _sign_labels(img, spec, label, t=None):
    """Labels of the sign bits, written plane by plane over the run into
    bool (P, ..., H, W) scratch stacks, with no float neighbour stack: the
    bits [neighbour >= centre], or with an LTP threshold t the pair
    [neighbour >= centre + t] and [neighbour <= centre - t].  Bit k of a
    pixel is neighbour k's; `label` turns each interior (P, ...) bit stack
    into a new array of per-pixel labels, returned in a list."""
    img = _checked(img, spec)
    m = spec.margin
    h, w = img.shape[-2:]
    first, n = _run_bounds(img.shape, spec)
    centre = img.reshape(-1)[first:first + n]
    tests = ([(np.greater_equal, centre)] if t is None else
             [(np.greater_equal, centre + t), (np.less_equal, centre - t)])
    stacks = [_scratch_array(f"bits{i}", (spec.p,) + img.shape, bool)
              for i in range(len(tests))]
    for k, (run, _) in enumerate(_neighbor_planes(img, spec)):
        for (test, limit), bits in zip(tests, stacks):
            test(run, limit, out=bits.reshape(spec.p, -1)[k, :n])
    return [label(bits[..., :h - 2 * m, :w - 2 * m]) for bits in stacks]


def interior(img, spec):
    m = spec.margin
    return np.asarray(img, dtype=np.float64)[..., m:-m, m:-m]


def _riu2_rule(codes, p):
    """int32 riu2 label of each packed uint32 P-bit code: its popcount when
    it has at most two circular 0/1 transitions, P+1 otherwise."""
    rotated = ((codes << 1) | (codes >> (p - 1))) & np.uint32((1 << p) - 1)
    labels = np.bitwise_count(codes).astype(np.int32)
    np.putmask(labels, np.bitwise_count(codes ^ rotated) > 2, p + 1)
    return labels


@lru_cache(maxsize=None)
def _riu2_table(p):
    """Read-only int32 riu2 label of every P-bit code, built on first use."""
    table = _riu2_rule(np.arange(1 << p, dtype=np.uint32), p)
    table.setflags(write=False)
    return table


def riu2_from_bits(bits):
    """int32 riu2 labels straight from a (P, ...) boolean stack, bit k of
    the code being bits[k].

    A code with at most two circular 0/1 transitions is labelled by its
    popcount, every other code by P+1 (P+2 labels in all).  The bits are
    packed into the narrowest unsigned codes that hold them; for P <= 16
    the codes index a 2**P lookup table (Ojala et al. 2002), and for larger
    P the rule is applied to each pixel's code, as a 2**24 table is too
    large.
    """
    p = bits.shape[0]
    if p > MAX_P:
        raise ValueError(f"P={p} exceeds the maximum of {MAX_P} neighbors")
    dtype = np.uint8 if p <= 8 else np.uint16 if p <= 16 else np.uint32
    weights = np.left_shift(1, np.arange(p, dtype=dtype), dtype=dtype)
    # packed without a (P, ...) product array; integer sums are exact
    codes = np.einsum("k...,k->...", bits, weights, dtype=dtype)
    if p <= _TABLE_MAX_P:
        return _riu2_table(p).take(codes)
    return _riu2_rule(codes, p)


def _count_bits(bits):
    return bits.sum(axis=0).astype(np.int32)


def _parts(scheme):
    try:
        return COMBINATION_SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown combination scheme {scheme!r}") from None


def _plane_bins(plane, b):
    return 2 if plane == "C" else b


def _codes(img, spec, scheme, label):
    """The (S, M, C) planes of the completed-LBP family; a plane the scheme
    does not read is None and is never computed.

    Sign bits are [neighbor >= center] (ties encode 1); magnitude bits
    threshold |neighbor - center| against the image-wide mean magnitude;
    the center bit thresholds the center against the mean interior
    intensity.  `label` turns a (P, ...) bit stack into per-pixel labels.
    """
    planes = {plane for part in _parts(scheme) for plane in part}
    img = _checked(img, spec)
    center = interior(img, spec)
    s = m = None
    if "M" in planes:  # thresholded by the mean over the whole stack
        diffs = neighbor_stack(img, spec)
        diffs -= center[..., None, :, :]  # in the stack's memory
        # the labellers take the neighbour axis first
        if "S" in planes:
            s = label(np.moveaxis(diffs >= 0, -3, 0))
        mags = np.abs(diffs, out=diffs)
        # image-major, so each image's mean sums its own contiguous cells
        # in the order a single image's mean does
        m = label(np.moveaxis(
            mags >= mags.mean(axis=(-3, -2, -1), keepdims=True), -3, 0))
    elif "S" in planes:  # for finite doubles a - b >= 0 exactly when a >= b
        (s,) = _sign_labels(img, spec, label)
    c = ((center >= center.mean(axis=(-2, -1), keepdims=True))
         .astype(np.int32) if "C" in planes else None)
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
    """Per-image label counts: (..., h, w) labels in [0, nbins) give
    (..., nbins) float64 counts, from one bincount over the stack."""
    lead = labels.shape[:-2]
    n = math.prod(lead)
    index = labels.reshape(n, -1) + (np.arange(n) * nbins)[:, None]
    counts = np.bincount(index.ravel(), minlength=n * nbins)
    return counts.astype(np.float64).reshape(lead + (nbins,))


def _normalized(bins):
    """Each histogram (last axis) divided by its own sum; an all-zero
    histogram stays zero."""
    total = bins.sum(axis=-1, keepdims=True)
    return bins / np.where(total > 0, total, 1.0)


def build_histogram(s, m, c, scheme, nbins_per_code):
    """Combine per-pixel codes into a normalized histogram.

    With B = nbins_per_code (P+2 for pattern labels, P+1 for counts):
    S or M -> B; S_M -> 2B; S/M -> B^2; S/C or M/C -> 2B; S/M/C -> 2B^2;
    S_M/C and M_S/C -> 3B.  Joint indices flatten row-major with the sign
    label fastest: index = s + B*m (+ B^2*c).  Planes the scheme does not
    read may be None.
    """
    b = nbins_per_code
    codes = {"S": s, "M": m, "C": c}
    hists = []
    for part in _parts(scheme):
        index, size = codes[part[0]], _plane_bins(part[0], b)
        for plane in part[1:]:
            index = index + size * codes[plane]
            size *= _plane_bins(plane, b)
        hists.append(_hist(index, size))
    return _normalized(np.concatenate(hists, axis=-1))


def ltp_histogram(img, spec, t=DEFAULT_LTP_T):
    """Ternary pattern: upper bits [n >= c+t], lower bits [n <= c-t],
    each riu2-mapped; the two histograms are concatenated (2(P+2) bins)."""
    if not 0 <= t < math.inf:
        raise ValueError(f"ltp_t must be in [0, inf), got {t}")
    upper, lower = _sign_labels(img, spec, riu2_from_bits, t)
    b = spec.p + 2
    return _normalized(np.concatenate([_hist(upper, b), _hist(lower, b)],
                                      axis=-1))


def wld_histogram(img):
    """Weber descriptor over the 3x3 neighborhood.

    Differential excitation arctan(sum(neighbor - center) / center) is
    segmented into WLD_M equal intervals of [-pi/2, pi/2] with WLD_S
    sub-bins each; gradient orientation from the 3x3 cross is quantized to
    WLD_T directions; the (segment, orientation, sub-bin) histogram is
    flattened segment-major.  The center is floored at 1/255 before the
    division.
    """
    spec = NeighborhoodSpec(p=8, r=1.0)
    img = _checked(img, spec)
    m = spec.margin
    center = interior(img, spec)
    ring = sum(_shifted(img, m, dr, dc)
               for dr in (-1, 0, 1) for dc in (-1, 0, 1)
               if (dr, dc) != (0, 0))
    xi = np.arctan((ring - 8.0 * center) / np.maximum(center, 1.0 / 255.0))
    pos = (xi + np.pi / 2.0) / (np.pi / WLD_M)
    seg = np.minimum(pos.astype(np.int32), WLD_M - 1)
    sub = np.minimum(((pos - seg) * WLD_S).astype(np.int32), WLD_S - 1)
    # orientation from the 3x3 cross: vertical diff over horizontal diff
    dv = _shifted(img, m, 1, 0) - _shifted(img, m, -1, 0)
    dh = _shifted(img, m, 0, -1) - _shifted(img, m, 0, 1)
    theta = np.mod(np.arctan2(dv, dh), 2.0 * np.pi)
    t = np.mod(np.floor(theta / (2.0 * np.pi / WLD_T) + 0.5).astype(np.int32),
               WLD_T)
    idx = (seg * WLD_T + t) * WLD_S + sub
    return _normalized(_hist(idx, WLD_T * WLD_M * WLD_S))


def _histogram(img, config):
    """Normalized histogram of each image under the configured descriptor."""
    if config.family == "ltp":
        return ltp_histogram(img, config.spec, config.ltp_t)
    if config.family == "wld":
        return wld_histogram(img)
    codes = clbc_codes if config.family == "clbc" else clbp_codes
    return build_histogram(*codes(img, config.spec, config.scheme),
                           config.scheme, config.bins_per_code)


@lru_cache(maxsize=None)
def feature_size(config, on_maps=False):
    """Histogram length of the descriptor config: that of one zero image
    just large enough for it, doubled for a map pair (computed once)."""
    side = 2 * config.spec.margin + 1
    n = _histogram(np.zeros((side, side)), config).shape[-1]
    return 2 * n if on_maps else n


def extract(source, config):
    """Extract the configured descriptor from an image or an ON/OFF map pair
    as a normalized 1-D float64 histogram; a stack of N images or map pairs
    gives an (N, bins) array, row i being image i's histogram.

    For a map pair, each map is encoded as an ordinary image (its own
    thresholds) and the two histograms are concatenated and jointly
    renormalized.  An image or map with a NaN or infinite pixel is rejected.
    """
    if isinstance(source, BfMaps):
        return _normalized(np.concatenate([_histogram(source.plus, config),
                                           _histogram(source.minus, config)],
                                          axis=-1))
    return _histogram(source, config)
