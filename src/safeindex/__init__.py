"""Text-only adult-content filter for building a safe search-engine index."""

from .errors import (
    ConfigError,
    LexiconError,
    MalformedUrlError,
    SafeIndexError,
    TrainingError,
)
from .evaluation import ConfusionMatrix, attribute_usage, metrics, score_run
from .features import (
    ATTRIBUTE_NAMES,
    FeatureVector,
    extract_features,
    substring_hits,
)
from .forest import (
    Forest,
    Leaf,
    Split,
    TrainConfig,
    TrainReport,
    classify,
    count_threshold,
    forest_score,
    forest_votes,
    load_forest,
    save_forest,
    train_forest,
)
from .lexicon import (
    CONTENT_LEXICON_NAMES,
    LexiconSet,
    default_lexicon_set,
    load_lexicon_set,
    normalize_term,
)
from .page import (
    ADULT,
    SAFE,
    Page,
    UrlParts,
    extract_text,
    iter_corpus,
    page_from_html,
    parse_url,
)
from .pipeline import (
    FilterState,
    StageReport,
    Verdict,
    build_safe_index,
    filter_page,
    load_blacklist,
    save_blacklist,
)

__version__ = "0.1.0"
