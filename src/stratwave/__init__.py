"""Wavelet analysis and profile decomposition on stratified Lie groups.

Submodules:
  groups      exact group/dilation arithmetic and homogeneous norms
  sampling    regular lattices, tiles, and lattice-sum decay certificates
  windows     dyadic spectral windows and the partition identity
  transform   FFT-based transforms, frames, and continuous norms on R^d
  coeffs      sequence-space norms, reordering, best-M-term projection
  profiles    orthogonality classification and profile extraction
  generators  synthetic bounded sequences with prescribed escape laws
  io          grid / coefficient / snapshot file formats
  cli         command-line workbench
"""

from .groups import (
    DomainError,
    GroupSpec,
    LayoutError,
    abelian,
    critical_exponent,
    dilate,
    heisenberg,
    hom_norm,
    identity,
    inverse,
    multiply,
    validate_law,
)
from .sampling import (
    AtomIndex,
    SamplingSet,
    column_decay_certificate,
    lattice_coordinates,
    preset_sampling_set,
    verify_tiling,
)
from .windows import (
    NarrowWindow,
    Window,
    build_window,
    coverage_interval,
    verify_partition,
)
from .coeffs import (
    CoefficientField,
    L1_ATOMS,
    NormParams,
    convert,
    discrete_besov_norm,
    lp_atoms,
    mterm_error_curve,
    q_m,
    rank_order,
    sobolev_seq_norm,
    unconditionality_ratio,
)
from .transform import (
    FrameCheck,
    GridDescriptor,
    GridFunction,
    KernelSet,
    analyze,
    besov_norm_continuous,
    build_kernel_set,
    calderon_reconstruct,
    dilate_grid,
    frame_reconstruct,
    lebesgue_norm,
    lp_block,
    sobolev_norm,
    synthesize,
    verify_frame,
)
from .profiles import (
    ExtractParams,
    NonconvergentCoefficient,
    Profile,
    ProfileDecomposition,
    ScaleCorePair,
    SequenceSnapshots,
    UndecidableOrthogonality,
    classify_pair,
    energy_ledger,
    extract,
    remainder_split,
    rendered_profile,
)
from .generators import BundleAtom, GeneratorError, GeneratorSpec, TrackSpec, generate

__version__ = "0.1.0"
