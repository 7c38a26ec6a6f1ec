"""Contrastive graph-summary pretraining for text-attributed graphs.

Pipeline: load a text-attributed graph, sample ego-subgraphs by random walk
with restart, serialize them to a GraphML dialect and generate text
summaries, pretrain a graph transformer against a frozen text encoder with a
shift-robust contrastive loss, then adapt to target graphs by zero-shot
label-sentence matching or few-shot graph prompt tuning. A numerical lab
verifies the robustness analysis behind the loss.
"""

from .graphs import (
    EgoSubgraph,
    SamplerConfig,
    TextAttributedGraph,
    load_graph,
    rwr_sample,
    save_graph,
    with_positional_encodings,
)
from .graphml import GraphMLSchema, emit_graphml, parse_graphml
from .corpus import GraphSummaryPair, generate_pairs, read_pairs, write_pairs
from .textenc import Embedding, HashTextEncoder, TableTextEncoder, attach_features
from .encoder import (
    GraphEncoderConfig,
    ParamStore,
    load_checkpoint,
    parameter_count,
    preset_config,
    save_checkpoint,
)
from .losses import alignment_uniformity, contrastive_loss
from .pretrain import OptimizerConfig, PerturbationState, pretrain
from .adapt import (
    FewShotSplit,
    LabelPromptSet,
    PromptVector,
    auc,
    evaluate_link_prediction,
    evaluate_node_classification,
    link_score,
    make_few_shot_split,
    prompt_tune,
    zero_shot_classify,
)
from .theory import verify_proposition, verify_theorem_bound

__version__ = "0.1.0"
