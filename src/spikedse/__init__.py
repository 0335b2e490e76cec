"""spikedse: LIF network simulation and optimization for event-camera data.

Pipeline: parse or synthesize event streams, crop to an attention window,
bin into binary spike frames, train with surrogate-gradient BPTT, quantize
post training, and explore the precision x timestep x window design space
against analytic memory/latency/energy models.
"""

from .costs import (
    CostConstants,
    CostReport,
    OpCount,
    count_ops,
    default_constants,
    energy_estimate,
    full_report,
    latency_estimate,
    reduction_factor,
    setting_tag,
)
from .dse import (
    Constraints,
    DseGrid,
    DsePoint,
    emit_report,
    enumerate_grid,
    filter_constraints,
    load_accuracy_table,
    parse_report,
    pareto_front,
    run_dse,
    select,
)
from .events import (
    AttentionWindow,
    EventSample,
    Recordings,
    SpikeFrames,
    bin_to_frames,
    crop,
    crop_to_window,
    dataset_split,
    encode_dataset,
    encode_sample,
    find_attention_window,
    generate_synthetic,
    make_synthetic_dataset,
    parse_csv,
    parse_dat,
    read_event_file,
    write_csv,
    write_dat,
    write_dataset,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .network import (
    LayerSpec,
    LifParams,
    NetworkSpec,
    WeightSet,
    build_network,
    decode,
    forward,
    init_weights,
    layer_shapes,
    lif_scan,
    simulate,
)
from .quantize import (
    FixedPointFormat,
    QuantConfig,
    choose_format,
    memory_of,
    ptq,
    quantize_array,
)
from .training import (
    SurrogateParams,
    TrainConfig,
    backward,
    evaluate,
    loss,
    surrogate_derivative,
    train,
)

__version__ = "0.1.0"
