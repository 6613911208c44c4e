package graph

import "sort"

// Vertex reordering. The dual-block representation's locality — and the
// compressed format's delta sizes — depend on the vertex ID assignment:
// hot vertices clustered together coalesce better under ROP and produce
// smaller varint deltas. These helpers relabel a graph under a permutation
// and provide the two orderings out-of-core systems commonly apply at
// preprocessing time (GraphChi's sharder sorts, web crawls arrive in
// lexicographic URL order).

// Relabel returns a copy of g with vertex v renamed to perm[v]. perm must
// be a permutation of [0, NumVertices).
func Relabel(g *Graph, perm []VertexID) *Graph {
	if len(perm) != g.NumVertices {
		panic("graph: Relabel permutation length mismatch")
	}
	seen := make([]bool, g.NumVertices)
	for _, p := range perm {
		if int(p) >= g.NumVertices || seen[p] {
			panic("graph: Relabel argument is not a permutation")
		}
		seen[p] = true
	}
	out := New(g.NumVertices)
	if len(g.Edges) > 0 { // an edgeless graph keeps Edges nil, as New leaves it
		out.Edges = make([]Edge, len(g.Edges))
	}
	for i, e := range g.Edges {
		out.Edges[i] = Edge{Src: perm[e.Src], Dst: perm[e.Dst], Weight: e.Weight}
	}
	return out
}

// DegreeOrder returns the permutation that assigns the smallest IDs to the
// highest-degree (in+out) vertices. Hub clustering concentrates the hot
// working set in the first intervals — the standard hub-sort preprocessing
// trick.
func DegreeOrder(g *Graph) []VertexID {
	type dv struct {
		v   VertexID
		deg int
	}
	out := g.OutDegrees()
	in := g.InDegrees()
	ds := make([]dv, g.NumVertices)
	for v := range ds {
		ds[v] = dv{v: VertexID(v), deg: out[v] + in[v]}
	}
	sort.SliceStable(ds, func(a, b int) bool { return ds[a].deg > ds[b].deg })
	perm := make([]VertexID, g.NumVertices)
	for rank, d := range ds {
		perm[d.v] = VertexID(rank)
	}
	return perm
}

// BFSOrder returns the permutation that renumbers vertices in
// breadth-first discovery order from src (ignoring edge direction), with
// unreached vertices appended in ID order. Neighbor IDs become close to
// each other, which shrinks compressed deltas and tightens ROP's coalesced
// runs.
func BFSOrder(g *Graph, src VertexID) []VertexID {
	n := g.NumVertices
	// Undirected adjacency for discovery.
	adj := BuildOutCSR(g.Symmetrize())
	perm := make([]VertexID, n)
	visited := make([]bool, n)
	next := VertexID(0)
	queue := make([]VertexID, 0, 64)
	enqueue := func(v VertexID) {
		visited[v] = true
		perm[v] = next
		next++
		queue = append(queue, v)
	}
	if int(src) < n {
		enqueue(src)
	}
	for head := 0; head < len(queue); head++ {
		for _, u := range adj.Neighbors(queue[head]) {
			if !visited[u] {
				enqueue(u)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !visited[v] {
			perm[v] = next
			next++
		}
	}
	return perm
}

// InversePermutation returns q with q[perm[v]] = v, mapping relabeled IDs
// back to originals (to translate results after running on a relabeled
// graph).
func InversePermutation(perm []VertexID) []VertexID {
	inv := make([]VertexID, len(perm))
	for v, p := range perm {
		inv[p] = VertexID(v)
	}
	return inv
}
