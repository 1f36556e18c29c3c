"""Exact enumeration, canonical forms and invariants of full intrinsic quadric surfaces.

A full intrinsic quadric surface is a normal complete surface whose Cox
ring is cut out by a single full-rank quadric; every such surface arises
from an integer defining matrix in one of three shapes (Picard number 1,
2, 3) and is classified, up to isomorphy, by a series tag together with
its two local Gorenstein indices and up to two local class group orders.
This package enumerates the classification exactly (plain integers and
fractions, no floating point), reduces arbitrary in-shape matrices to the
unique normal form, computes the geometric invariants (class groups,
degree, log canonicity, Picard index, resolution graphs) and decides
Kaehler-Einstein existence, at census scale.
"""

from .core import IntMatrix, SmithForm, smith_normal_form, solve3
from .series import (
    SERIES_TAGS,
    DefiningMatrix,
    SeriesId,
    SeriesKey,
    enumerate_all,
    enumerate_eta,
    matrix_from_eta,
    series_membership,
)
from .canon import (
    AdmissibleOp,
    NormalFormError,
    RawMatrix,
    apply_op,
    canonicalize,
    classify,
    raw_from_matrix,
    validate,
)
from .invariants import (
    ClassGroup,
    LocalData,
    ResolutionGraph,
    SurfaceRecord,
    chain_determinant,
    class_group,
    class_group_oracle,
    degree,
    degree_from_eta,
    gorenstein_index,
    local_data,
    local_gorenstein,
    local_gorenstein_oracle,
    local_orders,
    log_canonicity,
    picard_index,
    picard_index_from_eta,
    record_from_matrix,
    resolution_graph,
    surface_record,
)
from .kaehler import (
    Barycenter,
    barycenter_oracle,
    barycenters,
    degeneration_polygon,
    is_ke_family,
    is_ke_oracle,
)
from .census import (
    CountTable,
    count,
    count_exact,
    count_ke,
    emit_plot_data,
    export_records,
    record_from_csv_row,
    record_from_json_line,
    record_to_csv_row,
    record_to_json_line,
)
from .verify import VerifyReport, verify_claims

__version__ = "0.1.0"
