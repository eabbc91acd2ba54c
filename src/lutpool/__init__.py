"""Pooled lookup-table image restoration.

Dense interpolated tables over quantized pixel lattices, queried under
four rotations and fused by averaging, a soft-median, or learned
per-pixel weights; single tables or short cascades handle denoising
and small-factor super-resolution on commodity CPUs.
"""

from .lut import (
    CoeffLut,
    LutFileError,
    BadMagicError,
    ChecksumError,
    TruncatedFileError,
    VersionMismatchError,
    LutHeader,
    QuantizedLut,
    QuantizeReport,
    RealLut,
    bake,
    bake_real,
    dequantize,
    deserialize,
    inspect_file,
    interpolate,
    lattice_size,
    load_lut,
    quantize,
    query,
    query_batch,
    round_half_away,
    save_lut,
    serialize,
    storage_bytes,
)
from .orientation import (
    DIAGONAL_PATTERN,
    KernelPattern,
    OrientationSet,
    PATTERNS,
    SQUARE_PATTERN,
    WYE_PATTERN,
    block_permutation,
    oriented_predictions,
    rotate_offset,
    rotate_patch,
    unrotate_output,
)
from .pooling import (
    FusionResult,
    PoolingSpec,
    average_weights,
    combine,
    fuse_average,
    fuse_gmp,
    fuse_oap,
    gmp_distances,
    gmp_weights,
    oap_weights,
    softmax,
)
from .pipeline import (
    PipelineConfig,
    QueryCounter,
    apply_residual,
    bicubic_resize,
    load_pipeline,
    pixel_shuffle,
    query_cost_model,
    restore_image,
    save_pipeline,
)
from .metrics import blocking_effect_factor, mse, psnr, psnr_b, rgb_to_y, ssim
from .netpbm import PnmError, read_pnm, write_pnm
from .data import (
    DegradationRecipe,
    ManifestItem,
    counter_gaussian,
    degrade,
    load_manifest,
    make_synthetic_corpus,
    parse_recipe,
    write_synthetic_dataset,
)
from .train import (
    AdamState,
    Batch,
    TrainConfig,
    TrainReport,
    TrainableLut,
    TrainablePipeline,
    TrainingDivergedError,
    adam_step,
    cosine_lr,
    entropy_regularizer,
    evaluate_pairs,
    export_pipeline,
    finetune,
    forward_backward,
    loss_only,
    sample_batch,
    train,
)

__version__ = "0.1.0"
