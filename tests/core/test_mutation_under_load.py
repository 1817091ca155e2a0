"""Query correctness under concurrent incremental maintenance.

Plain threads keep calling ``Flix.query`` while ``add_document`` /
``remove_document`` run on another thread.  Every response must be
consistent with exactly one published layout generation — never a mix of
two layouts (docs/MAINTENANCE.md).  Runs under CI's thread-stress job
(``PYTHONDEVMODE=1``).
"""

import threading

import pytest

from repro.collection.builder import build_collection
from repro.collection.document import XmlDocument
from repro.core.api import QueryRequest
from repro.core.config import CacheConfig, FlixConfig
from repro.core.framework import Flix

DOCS = 8
QUERY_THREADS = 3


def doc(name, text):
    return XmlDocument.from_text(name, text)


def added_doc(i):
    return doc(f"d{i}.xml", f"<doc><p>p{i}</p></doc>")


@pytest.fixture()
def stable_collection():
    links = "".join(f'<l xlink:href="d{i}.xml"/>' for i in range(DOCS))
    return build_collection(
        [doc("stable.xml", f"<doc>{links}<p>home</p></doc>")]
    )


class TestMutationUnderLoad:
    def oracles(self, collection):
        """Expected descendant set of stable.xml's root per generation.

        Node ids are deterministic: the mutator adds d0..d7 (generations
        1..8, two nodes each, ids assigned sequentially) and then removes
        them in the same order (generations 9..16).
        """
        base_nodes = len(collection.document_nodes("stable.xml"))
        root = collection.document_root("stable.xml")
        base = set(range(base_nodes)) - {root}

        def doc_nodes(i):
            return {base_nodes + 2 * i, base_nodes + 2 * i + 1}

        oracles = {}
        for g in range(DOCS + 1):  # g adds done
            oracles[g] = base | {n for j in range(g) for n in doc_nodes(j)}
        for r in range(1, DOCS + 1):  # r removes done
            oracles[DOCS + r] = base | {
                n for j in range(r, DOCS) for n in doc_nodes(j)
            }
        return oracles

    def test_every_response_matches_one_generation(self, stable_collection):
        config = FlixConfig.naive().with_cache(
            CacheConfig(maxsize=256, shards=4)
        )
        flix = Flix.build(stable_collection, config)
        oracles = self.oracles(stable_collection)
        root = stable_collection.document_root("stable.xml")
        request = QueryRequest.descendants(root)

        stop = threading.Event()
        mutator_errors = []
        query_errors = []
        observations = []  # (generation, frozenset_of_nodes)
        observations_lock = threading.Lock()

        def mutate():
            try:
                for i in range(DOCS):
                    flix.add_document(added_doc(i))
                for i in range(DOCS):
                    flix.remove_document(f"d{i}.xml")
            except BaseException as error:  # pragma: no cover - test fails
                mutator_errors.append(error)
            finally:
                stop.set()

        def hammer():
            try:
                while not stop.is_set():
                    response = flix.query(request)
                    with observations_lock:
                        observations.append(
                            (
                                response.layout_generation,
                                frozenset(r.node for r in response),
                            )
                        )
            except BaseException as error:  # pragma: no cover
                query_errors.append(error)

        threads = [
            threading.Thread(target=hammer, name=f"load-{i}")
            for i in range(QUERY_THREADS)
        ]
        mutator = threading.Thread(target=mutate, name="mutator")
        for thread in threads:
            thread.start()
        mutator.start()
        mutator.join(timeout=120)
        for thread in threads:
            thread.join(timeout=120)

        assert not mutator_errors, mutator_errors
        assert not query_errors, query_errors
        assert flix.layout_generation == 2 * DOCS
        assert observations, "the load threads never completed a query"
        for generation, nodes in observations:
            assert generation in oracles, (
                f"response claims unpublished generation {generation}"
            )
            assert nodes == oracles[generation], (
                f"response at generation {generation} mixed layouts: "
                f"unexpected {sorted(nodes ^ oracles[generation])}"
            )

    def test_batch_add_under_load(self, stable_collection):
        """One ``add_documents`` swap: a racing query sees all of the
        batch or none of it, never a strict subset."""
        flix = Flix.build(stable_collection, FlixConfig.naive())
        oracles = self.oracles(stable_collection)
        root = stable_collection.document_root("stable.xml")
        request = QueryRequest.descendants(root)

        stop = threading.Event()
        observations = []
        query_errors = []

        def hammer():
            try:
                while not stop.is_set():
                    response = flix.query(request)
                    observations.append(
                        (
                            response.layout_generation,
                            frozenset(r.node for r in response),
                        )
                    )
            except BaseException as error:  # pragma: no cover
                query_errors.append(error)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            flix.add_documents([added_doc(i) for i in range(DOCS)])
        finally:
            stop.set()
            thread.join(timeout=60)

        assert not query_errors, query_errors
        assert flix.layout_generation == 1
        allowed = {0: oracles[0], 1: oracles[DOCS]}
        for generation, nodes in observations:
            assert nodes == allowed[generation]

    def test_pinned_stream_survives_removal(self, stable_collection):
        """A stream opened before a removal keeps its snapshot: it can
        still answer from the pinned layout even though the published
        layout no longer contains the removed document."""
        flix = Flix.build(stable_collection, FlixConfig.naive())
        flix.add_document(added_doc(0))
        root = stable_collection.document_root("stable.xml")
        stream = flix.query_stream(QueryRequest.descendants(root))
        first = next(stream)
        flix.remove_document("d0.xml")
        rest = list(stream)
        seen = {first.node} | {r.node for r in rest}
        assert seen == self.oracles(stable_collection)[1]
