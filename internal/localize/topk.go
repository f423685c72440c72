package localize

import "indoorloc/internal/trainingdb"

// Bounded top-k selection by index. Serving callers consume a handful
// of ranked candidates (the argmax, a centroid over k neighbours, a
// confidence quantile), yet a full ranking sorts all n entries per
// query. The compiled scorers instead write one float64 score per
// entry into a pooled buffer; TopK streams that buffer through a
// worst-at-root heap of k entry indices in O(n + k log n) with zero
// allocations, heapsorts the winners best-first, and only those k
// become Candidate structs.

// scoreBetter reports whether entry a outranks entry b: higher score
// first, ties broken toward the lexically smaller name, matching
// rankCandidates exactly. Names are unique within one view, so the
// order is total and the selected top-k set is identical to the full
// sort's prefix.
//
//loclint:hotpath
func scoreBetter(scores []float64, names []string, a, b int32) bool {
	if scores[a] != scores[b] { //loclint:allow nofloateq — exact compare mirrors rankCandidates so top-k prefix == full-sort prefix
		return scores[a] > scores[b]
	}
	return names[a] < names[b]
}

// siftIndex restores the worst-at-root heap property at index i over
// idx[:n]: every parent ranks no better than its children.
//
//loclint:hotpath
func siftIndex(scores []float64, names []string, idx []int32, i, n int) {
	for {
		w := i
		if l := 2*i + 1; l < n && scoreBetter(scores, names, idx[w], idx[l]) {
			w = l
		}
		if r := 2*i + 2; r < n && scoreBetter(scores, names, idx[w], idx[r]) {
			w = r
		}
		if w == i {
			return
		}
		idx[i], idx[w] = idx[w], idx[i]
		i = w
	}
}

// TopK fills idx with the indices of the len(idx) best entries of
// scores, ranked best-first — the exact prefix a full rankCandidates
// sort of the same entries would produce — and returns it. names[i]
// breaks ties for scores[i]. len(idx) above len(scores) is clamped;
// scores and names are only read.
//
//loclint:hotpath
func TopK(scores []float64, names []string, idx []int32) []int32 {
	k := min(len(idx), len(scores))
	idx = idx[:k]
	if k == 0 {
		return idx
	}
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftIndex(scores, names, idx, i, k)
	}
	// Stream the tail through: anything better than the current worst
	// replaces it at the root.
	worst := scores[idx[0]]
	for i := k; i < len(scores); i++ {
		if s := scores[i]; !(s > worst || (s == worst && names[i] < names[idx[0]])) { //loclint:allow nofloateq — inlined scoreBetter(i, idx[0])
			continue
		}
		idx[0] = int32(i)
		siftIndex(scores, names, idx, 0, k)
		worst = scores[idx[0]]
	}
	// Heapsort the winners: extract the current worst to the end of the
	// shrinking prefix until the best sits at idx[0].
	for end := k - 1; end > 0; end-- {
		idx[0], idx[end] = idx[end], idx[0]
		siftIndex(scores, names, idx, 0, end)
	}
	return idx
}

// rankScores turns per-entry scores into the ranked candidate list a
// locator returns: the k best when 0 < k < len(scores), otherwise
// every entry. Only the returned candidates are built.
func rankScores(c *trainingdb.Compiled, scores []float64, k int, sc *scratch) []Candidate {
	n := len(scores)
	if k <= 0 || k >= n {
		out := make([]Candidate, n)
		for i, s := range scores {
			out[i] = Candidate{Name: c.Names[i], Pos: c.Pos[i], Score: s}
		}
		rankCandidates(out)
		return out
	}
	if cap(sc.idx) < k {
		sc.idx = make([]int32, k)
	}
	sc.idx = TopK(scores, c.Names, sc.idx[:k])
	out := make([]Candidate, k)
	for r, i := range sc.idx {
		out[r] = Candidate{Name: c.Names[i], Pos: c.Pos[i], Score: scores[i]}
	}
	return out
}
