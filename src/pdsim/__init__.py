"""Cloud-device split serving toolkit: planner, wire protocol and simulators."""

from .cloudsim import EOT_TOKEN, BatchModel, CloudTrace, TokenSource, run_throughput, serve_request
from .devicesim import CorrectionPolicy, DeviceTrace, StallError, run_session, scrub
from .harness import ExperimentConfig, MetricsReport, default_config, load_config, run_experiment
from .maskcodec import CompressedMask, MaskCodecError, MaskLengthError, pack, unpack
from .planner import (
    OperatingPoint,
    Plan,
    PlanConstraints,
    PlanKey,
    PlanTable,
    build_plan_table,
    l_bounds,
    operating_point,
    r_bounds,
    solve_plan,
)
from .protocol import (
    DONE,
    AssistRequest,
    FirstTokenFrame,
    ProtocolError,
    SseDecoder,
    StreamEvent,
    encode_done,
    encode_first_frame,
    encode_stream_event,
)
from .refiner import (
    AttentionInputs,
    SelectionMask,
    TokenizedPrompt,
    TokenScores,
    attention_weights,
    refined_text,
    score_tokens,
    select_sentences,
    tokenize,
)
from .timing import (
    AffineCost,
    AmortizationUndefined,
    RttClass,
    TimingModel,
    prefill_device,
    request_occupancy,
    smoothed_tpot,
    ttft_cloud,
    ttft_device,
)

__version__ = "0.1.0"
