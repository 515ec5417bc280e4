from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from dao.backends import HashEmbedder
from dao.corpus import build_index, load_corpus, load_ontology

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def ontology_path() -> Path:
    return FIXTURES / "ontology_ace.jsonl"


@pytest.fixture(scope="session")
def corpus_path() -> Path:
    return FIXTURES / "corpus_small.jsonl"


@pytest.fixture(scope="session")
def ontology(ontology_path):
    return load_ontology(ontology_path)


@pytest.fixture(scope="session")
def corpus_entries(corpus_path):
    return load_corpus(corpus_path)


@pytest.fixture(scope="session")
def train_entries(corpus_entries):
    return [e for e in corpus_entries if e.split == "train"]


@pytest.fixture(scope="session")
def embedder():
    return HashEmbedder(64)


@pytest.fixture(scope="session")
def train_index(train_entries, embedder):
    return build_index(train_entries, embedder)


@pytest.fixture(scope="session")
def pool():
    """The call pool `run_session` fans out each batch a session yields
    on, its first call aside, as `dao run` sizes it for one worker and up
    to eight debaters."""
    with ThreadPoolExecutor(max_workers=8) as executor:
        yield executor


@pytest.fixture()
def sentence_by_id(corpus_entries):
    def lookup(sentence_id: str):
        return next(e.sentence for e in corpus_entries if e.sentence.id == sentence_id)

    return lookup
