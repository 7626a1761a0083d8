"""Z2 degree of framed circles in presented spin manifolds.

The pipeline: frame a closed curve (by hand, from a map's derivative at a
regular-value preimage, or from a section's derivative along its zero
locus), assemble the frame matrices into a rotation loop, and classify the
loop through the double cover of the rotation group. The resulting bit per
circle, summed over components, is the degree invariant of the link, of
the map, or of the bundle.
"""

from .errors import FbkError
from .numkit import Tolerances, recording, stacked
from .spinlift import (
    RotationLoop,
    Z2,
    loop_class,
    quaternion_loop_class,
    stabilize_loop,
)
from .framedlink import (
    AmbientPresentation,
    FramedLink,
    InvariantReport,
    NormalFraming,
    SampledLoop,
    cylinder_ambient,
    delta_pontryagin,
    euclidean_ambient,
    frame_matrix_loop,
    index_of_circle,
    invariant_report,
    kappa,
    load_link_file,
    sphere_ambient,
    twist_framing,
)
from .tracer import (
    MapSpec,
    SectionSpec,
    TraceOptions,
    hausdorff_distance,
    induced_framing,
    kappa_of_map,
    section_index,
    section_zero_loops,
    suggest_seeds,
    trace_component,
    transport_closed_frame,
)
from .scenarios import run_scenario

__all__ = [
    "AmbientPresentation",
    "FbkError",
    "FramedLink",
    "InvariantReport",
    "MapSpec",
    "NormalFraming",
    "RotationLoop",
    "SampledLoop",
    "SectionSpec",
    "Tolerances",
    "TraceOptions",
    "Z2",
    "cylinder_ambient",
    "delta_pontryagin",
    "euclidean_ambient",
    "frame_matrix_loop",
    "hausdorff_distance",
    "index_of_circle",
    "induced_framing",
    "invariant_report",
    "kappa",
    "kappa_of_map",
    "load_link_file",
    "loop_class",
    "quaternion_loop_class",
    "recording",
    "run_scenario",
    "section_index",
    "section_zero_loops",
    "sphere_ambient",
    "stabilize_loop",
    "stacked",
    "suggest_seeds",
    "trace_component",
    "transport_closed_frame",
    "twist_framing",
]
