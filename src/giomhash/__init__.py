"""Cancellable template hashing for variable-size point-set features.

The pipeline: minutiae -> one (N, d) array of per-point cylinder rows
(encode_dataset) -> per-point winner-index codes under a seeded Gaussian bank
(hash_dataset) -> greedy local similarity scoring -> FVC-style accuracy
evaluation, plus the security experiments (inversion, unlinkability,
revocability), fixed-vector index-of-max hashing (hash_rows on one row) and
the orthonormal random projection with its embedding-dimension bound.
"""

from .model import (
    Minutia,
    MinutiaeTemplate,
    HashKey,
    GaussianBank,
    HashedTemplate,
    ParseError,
    IntegrityError,
    load_minutiae,
    save_minutiae,
    load_key,
    save_key,
    load_hashed,
    save_hashed,
)
from .randomness import (
    OrthoMatrix,
    bank_matrix,
    derive_bank,
    gram_schmidt,
    random_ortho,
    random_projection,
    jl_dimension,
)
from .hashing import hash_rows
from .mcc import MccParams, SynthParams, encode_cylinders, synth_dataset, write_dataset
from .matching import (
    LgsParams,
    np_select,
    point_similarity,
    lgs_match,
    lgs_match_detail,
)
from .evaluation import (
    EvalReport,
    SweepResult,
    genuine_pairs,
    impostor_pairs,
    compute_eer,
    encode_dataset,
    hash_dataset,
    run_evaluation,
    sweep,
    load_report,
)
from .security import (
    InequalitySystem,
    build_inequalities,
    sample_preimage,
    preimage_volume_estimate,
    histogram_intersection,
    unlinkability_experiment,
    revocability_experiment,
)
from .cases import InversionCase, get_case

__all__ = [name for name in dir() if not name.startswith("_")]
