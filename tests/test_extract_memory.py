"""Extract's similarity tail holds memory linear in the concept count.

``pairwise_similarity`` embeds the concepts in batches into one K x d
array and takes the cosines in fixed tiles, so besides that array it holds
one batch's reply, one tile and the kept pairs. Its peak is measured with
tracemalloc over the call alone, at two sizes, so the bound is on the
growth between them."""

from __future__ import annotations

import tracemalloc

from graphsynth.backends import BackendClient, BackendDescriptor, MockServer
from graphsynth.extraction import pairwise_similarity
from graphsynth.store import KeyConcept, concept_id_for

EMBEDDER = BackendDescriptor("embedder", "embedder", "mock", "mock-embedder")

# At 32 dimensions a concept's unit row is 256 B, and its entries in the
# sorted concept, id and text lists about 30 B; random mock vectors put
# few pairs above the floor. Measured growth is about 280 B per concept.
# One reply for every text at once (a dict and 32 Python floats per row)
# grows by about 1.7 KiB per concept, and a cosine block spanning all K
# columns by 8 B per row held, some 8 KiB at 1,024 rows: either one breaks
# the bound. Both sizes exceed one tile's 1,024 columns.
MAX_BYTES_PER_ADDED_CONCEPT = 1024


def test_similarity_peak_grows_by_bytes_per_concept():
    peaks = {}
    for k in (3_000, 6_000):
        concepts = [KeyConcept(id=concept_id_for(f"concept {i}"), text=f"concept {i}")
                    for i in range(k)]
        client = BackendClient(mock=MockServer(seed=3, embedding_dim=32))
        tracemalloc.start()
        try:
            verdicts = pairwise_similarity(concepts, EMBEDDER, client)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(verdicts) < k
    slope = (peaks[6_000] - peaks[3_000]) / (6_000 - 3_000)
    assert slope <= MAX_BYTES_PER_ADDED_CONCEPT, peaks
