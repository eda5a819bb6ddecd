"""forumpulse: topic, lexicon and interaction analytics for discussion dumps."""

__version__ = "0.1.0"

from .errors import DataError, ForumPulseError, StageError, UsageError
from .ingest import (Comments, Dataset, Posts, author_activity_table, parse_dump,
                     response_time_table, score_relations)
from .corpus import Corpus, Vocabulary, build_corpus
from .lda import LdaConfig, TopicModel, fit, top_words
from .topics import (DominantTopicAssignment, cooccurrence, count_nonpositive,
                     dominant_topics, monthly_distribution, select_k, skewness)
from .lexicon import categorize, demo_lexicon, load_lexicon, pca, topicwise_profile
from .interaction import (InteractionGraph, UserMetrics, build_graph,
                          compute_user_metrics, top_influencers_subgraph, topic_spread,
                          user_classes)
from .fixture import generate_fixture
from .pipeline import run_pipeline

__all__ = [name for name in dir() if not name.startswith("_")]
