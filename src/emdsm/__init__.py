"""Time-harmonic electromagnetic scattering from penetrable media and direct
sampling reconstruction of scatterer supports from near-field data."""

from .em_core import (
    ContrastField,
    IncidentPlaneWave,
    Shape,
    WaveContext,
    incident_field,
)
from .forward import (
    ForwardSystem,
    InducedCurrentField,
    SolverSpec,
    VolumeGrid,
    build_grid,
    diagonal_self_term,
)
from .measurement import (
    FieldSamples,
    MeasurementSurface,
    add_noise,
    circle_surface,
    cube_surface,
    l2_inner_product,
    l2_norm,
    read_field_samples_csv,
    synthesize_scattered_fields,
    write_field_samples_csv,
)
from .dsm import (
    IndexGrid,
    SamplingGrid,
    component,
    compute_index_grid,
    cross_product_maps,
    diagonal_sum,
    find_local_maxima,
    polarization,
    polarization_sum,
    probe_field,
    sampling_grid,
    verify_boundary_lemma,
    verify_correlation_approx,
    write_index_csv,
    write_index_pgm,
)
from .harness import (
    ExperimentConfig,
    LocalizationReport,
    load_config,
    preset,
    run_experiment,
    verify,
)

__version__ = "0.1.0"
