#!/usr/bin/env python
"""Quickstart: embed a graph with One-Hot Graph Encoder Embedding.

This walks through the end-to-end use of the redesigned API:

1. generate a graph with planted community structure and wrap it in the
   ``Graph`` facade (any graph-like input works: edge lists, ``(s, 2|3)``
   arrays, CSR structures, ``scipy.sparse`` adjacencies),
2. reveal labels for 10% of the vertices (the paper's protocol),
3. compile an embed plan once with ``graph.plan(K)`` and sweep every
   backend in the ``repro.backends`` registry over it — repeated embeds
   skip validation, index building and allocation, and all agree,
4. classify the unlabelled vertices from the embedding,
5. embed *out-of-sample* vertices with ``transform`` (no refit), and
6. stream edge batches through ``partial_fit`` and check the online
   embedding matches the batch one.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import Graph, GraphEncoderEmbedding
from repro.backends import backend_capabilities, get_backend, list_backends
from repro.core.gee_parallel import shutdown_workers
from repro.eval.metrics import accuracy
from repro.graph import EdgeList, planted_partition, summarize
from repro.labels import mask_labels


def main() -> None:
    # 1. A 3-community planted-partition graph, wrapped in the Graph facade
    #    so every backend below shares its cached plans and views.
    edges, truth = planted_partition(1500, 3, 0.05, 0.005, seed=0)
    graph = Graph.coerce(edges)
    info = summarize(edges)
    print("graph:", info.n_vertices, "vertices,", info.n_edges, "directed edges")

    # 2. Semi-supervised labels: keep 10% of the ground truth, hide the rest.
    labels = mask_labels(truth, observed_fraction=0.10, seed=0)
    print("labelled vertices:", int(np.sum(labels != -1)))

    # 3. Compile the embed plan for K=3 once — validated edge arrays, the
    #    sorted layout's symmetric CSR (read by `sparse` and `parallel`), the
    #    Ligra engines' CSR and a reusable output buffer — and sweep every
    #    registered backend over it.  The plan is cached on the Graph, so
    #    the whole sweep pays the label-independent work once.
    reference = get_backend("python").embed(graph, labels).embedding
    plan = graph.plan(3)
    print("\nregistered backends on one compiled plan (runtime and agreement):")
    for name in list_backends():
        caps = backend_capabilities(name)
        backend = get_backend(name, n_workers=2 if caps.supports_n_workers else None)
        result = backend.embed_with_plan(plan, labels)
        delta = float(np.abs(result.embedding - reference).max())
        tag = "parallel" if caps.parallel else "serial  "
        print(
            f"  {name:18s} [{tag}] {result.total_seconds*1e3:8.1f} ms   "
            f"max|dZ| = {delta:.2e}"
        )

    # 4. The estimator API: nearest-class-centroid classification of the
    #    unlabelled vertices.
    model = GraphEncoderEmbedding(method="vectorized", normalize=True).fit(graph, labels)
    predictions = model.predict()
    unlabelled = labels == -1
    acc = accuracy(truth[unlabelled], predictions[unlabelled])
    print(f"\nclassification accuracy on the {int(unlabelled.sum())} unlabelled vertices: {acc:.3f}")

    # 5. Out-of-sample vertices: three new vertices attach to the graph and
    #    are embedded from their incident edges alone — no refit.
    n = graph.n_vertices
    new_src = np.array([n, n, n + 1, n + 2, n + 2])
    new_dst = np.array([0, 1, 510, 1001, 1002])
    new_edges = EdgeList(new_src, new_dst, n_vertices=n + 3)
    Z_new = model.transform(new_edges)
    print("out-of-sample embedding shape:", Z_new.shape)

    # 6. Streaming: feed the same edge list in 10 batches; the online
    #    embedding matches the batch fit up to floating-point rounding.
    stream = GraphEncoderEmbedding(3)
    for i, ids in enumerate(np.array_split(np.arange(edges.n_edges), 10)):
        batch = EdgeList(edges.src[ids], edges.dst[ids], None, edges.n_vertices)
        stream.partial_fit(batch, labels=labels if i == 0 else None)
    batch_fit = GraphEncoderEmbedding(method="vectorized").fit(graph, labels)
    drift = float(np.abs(stream.embedding_ - batch_fit.embedding_).max())
    print(f"streamed vs batch embedding: max|dZ| = {drift:.2e}")

    shutdown_workers()


if __name__ == "__main__":
    main()
