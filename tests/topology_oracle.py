"""The per-element interface discovery, kept as a test-only oracle.

This is how ``build_scenario`` found the coupling interface before it
used array operations: dicts of label sets filled node by node and facet
by facet while walking the global elements in order.  Nothing in
``src/`` imports it.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

_HEX_FACES = [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4),
              (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7)]


def _element_facets(dim, conn):
    if dim == 1:
        return [(conn[0],), (conn[1],)]
    if dim == 2:
        return [(conn[0], conn[1]), (conn[1], conn[2]), (conn[2], conn[0])]
    return [tuple(conn[i] for i in face) for face in _HEX_FACES]


def interface_topology(global_model, labels):
    """``(subdomain_ids, gamma_nodes, positions, facets)``: the free nodes
    on two or more subdomains, and per subdomain id its positions in
    ``gamma_nodes`` and its shared facets in first-met element order, each
    with the corner order of the first element holding it."""
    labels = np.asarray(labels, dtype=np.int64)
    dim = global_model.dimension
    node_labels = defaultdict(set)
    for conn, lab in zip(global_model.elements, labels):
        for n in conn:
            node_labels[int(n)].add(int(lab))
    interface_all = sorted(n for n, ls in node_labels.items() if len(ls) >= 2)
    gamma_nodes = np.array([n for n in interface_all
                            if n not in global_model.dirichlet],
                           dtype=np.int64)

    facet_labels = {}
    facet_order = {}
    for conn, lab in zip(global_model.elements, labels):
        for facet in _element_facets(dim, conn):
            key = tuple(sorted(int(n) for n in facet))
            facet_labels.setdefault(key, set()).add(int(lab))
            facet_order.setdefault(key, facet)
    facets_by_sid = defaultdict(list)
    for key, ls in facet_labels.items():
        if len(ls) >= 2:
            for s in ls:
                facets_by_sid[s].append(facet_order[key])

    subdomain_ids = sorted(set(labels.tolist()))
    positions = {s: np.flatnonzero([s in node_labels[int(n)]
                                    for n in gamma_nodes])
                 for s in subdomain_ids}
    facets = {s: np.array(facets_by_sid[s], dtype=np.int64)
              for s in subdomain_ids}
    return subdomain_ids, gamma_nodes, positions, facets
