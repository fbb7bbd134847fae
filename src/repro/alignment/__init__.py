"""Shape-symmetry reduction: translation, rotation and permutation removal.

Implements §4.2/§5.2 of Harder & Polani (2012): particle configurations are
mapped to representatives of their orbit under ``F = ISO+(2) × S*_n`` so that
multi-information is measured between *shape* observers rather than raw
coordinates.  On wrapped domains (periodic torus, channel) the group is
different — translations mod L on the periodic axes plus per-axis flips —
and the same entry points dispatch to the torus-aware reduction when a
``domain`` is passed (see :mod:`repro.alignment.torus`).
"""

# The torus module first: it loads scipy.spatial before scipy.optimize.  The
# other way round, scipy.special is first loaded through scipy.optimize's fft
# imports, and a fresh process's start-up (perfbench's set-up probe) was
# about 0.07-0.10 s (11-14%) slower on a 2-CPU x86-64 box, with scipy.stats
# no longer imported at start-up (medians of 10-20 alternating probes).
from repro.alignment.torus import TorusAligner, TorusICPResult, TorusTransform
from repro.alignment.procrustes import RigidTransform, kabsch_2d
from repro.alignment.correspondences import (
    assignment_correspondence,
    correspondence_distances,
    is_type_preserving_permutation,
    nearest_neighbor_correspondence,
)
from repro.alignment.icp import ICPResult, TypeAwareICP
from repro.alignment.symmetry import (
    SnapshotAlignment,
    align_snapshot,
    center_configurations,
    select_reference,
    select_reference_wrapped,
)

__all__ = [
    "RigidTransform",
    "kabsch_2d",
    "nearest_neighbor_correspondence",
    "assignment_correspondence",
    "is_type_preserving_permutation",
    "correspondence_distances",
    "TypeAwareICP",
    "ICPResult",
    "TorusAligner",
    "TorusICPResult",
    "TorusTransform",
    "center_configurations",
    "select_reference",
    "select_reference_wrapped",
    "align_snapshot",
    "SnapshotAlignment",
]
