package search

// topK selects the best k results by (score descending, doc ascending)
// without sorting every candidate: a binary min-heap whose root is the
// worst retained result, so ranking n candidates costs O(n log k) and the
// final drain O(k log k).
type topK struct {
	k int
	h []Result
}

// worse reports whether a ranks strictly below b: lower score, ties broken
// by higher document ID (so ascending doc IDs win ties, matching the
// engine's determinism contract).
func worse(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// beats reports whether r belongs in the best k seen so far: there is
// room, or it outranks the current worst. Once the heap is full almost
// every candidate fails this, so the scoring loop asks (inlined) before it
// calls keep. k must be positive.
func (t *topK) beats(r Result) bool {
	return len(t.h) < t.k || worse(t.h[0], r)
}

// keep admits a candidate that beats the current worst of the best k.
func (t *topK) keep(r Result) {
	if len(t.h) < t.k {
		t.h = append(t.h, r)
		t.siftUp(len(t.h) - 1)
		return
	}
	t.h[0] = r
	t.siftDown(t.h, 0)
}

func (t *topK) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(t.h[i], t.h[parent]) {
			return
		}
		t.h[i], t.h[parent] = t.h[parent], t.h[i]
		i = parent
	}
}

func (t *topK) siftDown(h []Result, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && worse(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && worse(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// ranked drains the heap in place and returns the retained results best
// first. The topK must not be reused afterwards.
func (t *topK) ranked() []Result {
	out := t.h
	for n := len(out) - 1; n > 0; n-- {
		out[0], out[n] = out[n], out[0]
		t.siftDown(out[:n], 0)
	}
	t.h = nil
	return out
}
