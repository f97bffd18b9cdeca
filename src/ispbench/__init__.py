"""Camera ISP pipeline optimization workbench.

Five reference kernels (demosaic, median denoise, color transform, gamut
mapping, tone mapping), a matrix of instrumented optimization variants, a
direct-mapped constant-cache simulator, a channel/FIFO dataflow executor
with stall accounting, and an analytic loop-pipelining model.
"""

from .cache import CacheAccessError, ConstCacheSim
from .dataflow import (
    ChannelConfig,
    DataflowResult,
    StageStats,
    run_pipeline_dataflow,
    simulate_chain,
)
from .harness import HarnessConfig, run_matrix
from .images import (
    ImageFormatError,
    PlanarImage,
    RawBayerImage,
    load_ppm,
    mosaic_from_planar,
    save_ppm,
    synth_bayer,
)
from .kernels import (
    demosaic,
    denoise,
    gamut_map,
    run_pipeline,
    tone_map,
    transform,
)
from .params import (
    GamutParams,
    ParamsError,
    PerfModelConfig,
    PipelineParams,
    ToneLUT,
    TransformMatrix,
    default_params,
    load_params_file,
    save_params_file,
)
from .perfmodel import (
    KernelDescriptor,
    PipelineEstimate,
    derive_descriptor,
    estimate_cycles,
    estimate_ii,
    rank_variants,
)
from .report import BenchReport, emit_report, report_from_json
from .variants import (
    AccessCounters,
    VariantConfig,
    VariantError,
    parse_variant,
    run_variant,
    traffic,
)

__version__ = "0.1.0"
