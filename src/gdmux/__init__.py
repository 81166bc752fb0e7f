"""Galois-division multiplexing over finite-field Hartley/Fourier transforms."""

from .errors import (BadLength, BadMagic, ExtensionNotEmbeddable, FrameFormatError,
                     GdmError, InconsistentFrame, InvalidParams, NoRationalization,
                     NoSuchRoot, NonInvertible, NotAUnit, NotCoprime, NotGroundField,
                     ParamMismatch, UnsupportedParams)
from .fields import (ExtField, FieldElement, GaloisInt, GaloisRing, SystemParams,
                     centered, find_root_of_unity, gaussian_ring, get_field,
                     mult_order, sqrt_of_minus_one)
from .trig import Carrier, CarrierMatrix, carrier, carrier_matrix, cas, rationalize_walsh
from .transforms import TimeBlock, forward_batch, inverse_batch
from .cosets import (CosetTable, Kind, approx_nu, coset_table, count_irreducibles,
                     fourier_cosets, hartley_cosets, moebius, nu_g_formula,
                     nu_h_formula)
from .pipeline import (CapacityCheck, CompressedFrame, CrosstalkReport, MuxMetrics,
                       capacity_check, crosstalk_probe, demux, deserialize,
                       iter_frames, metrics, mux, required_snr, serialize)
from .statsim import (AcfEstimate, PsdEstimate, PulseShape, galois_acf, psd_estimate,
                      synthesize_envelope)

__version__ = "0.1.0"
