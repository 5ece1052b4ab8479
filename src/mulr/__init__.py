"""Multi-level entity representations for fine-grained KB entity typing.

The package learns character-, word- and entity-level representations of
knowledge-base entities from an annotated corpus, concatenates them, and
classifies each entity into a set of fine-grained types with a multi-label
MLP and per-type decision thresholds.
"""

__version__ = "0.1.0"

from .dataset import (DatasetSplit, EntityRecord, TypeSystem, load_dataset,
                      load_type_system, refine, slice_entities)
from .corpus import (AnnotatedCorpus, Mention, SubwordIndex, Vocabulary,
                     build_subword_index, build_three_copy_corpus,
                     build_vocabulary, extract_subwords, tokenize)
from .embeddings import (EmbeddingStore, SgnsConfig, cosine, load_embeddings,
                         save_embeddings, train_sgns, train_subword_sgns)
from .levels import (Assembler, LevelSpec, RepresentationSpec, Resources,
                     avg_des, bow_features, build_idf, nsl_features, wlr)
from .typer import (TrainConfig, TyperModel, calibrate_thresholds, load_model,
                    predict_with_scores, save_model, train)
from .metrics import (EvalReport, build_report, entity_macro_f1,
                      equal_proportions_test, micro_f1, strict_accuracy,
                      type_macro_f1)
from .synthetic import SyntheticSpec, generate, preset_spec
from .pipeline import ExperimentConfig, load_config, run_pipeline
