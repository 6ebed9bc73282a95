package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	querygraph "github.com/querygraph/querygraph"
)

// The correctness gate: a seeded sample of every query class, plus a few
// expansions, is answered by each runtime and compared — doc ids and
// scores with ==, feature lists by title — with the in-process Client's
// answers on the same snapshot.
const (
	gatePerClass = 8
	gateKeywords = 4
	rankDepth    = 15 // the paper's deepest rank cutoff
)

type expandAnswer struct {
	Features []string            `json:"features"`
	Results  []querygraph.Result `json:"results"`
}

// answers is what one runtime returned for the gate's sample. It crosses
// process boundaries as JSON, which round-trips float64 scores exactly.
type answers struct {
	Searches map[string][]querygraph.Result `json:"searches"`
	Expands  map[string]expandAnswer        `json:"expands"`
}

// collect answers the sample through a Backend.
func collect(ctx context.Context, be querygraph.Backend, queries, keywords []string) (answers, error) {
	a := answers{Searches: make(map[string][]querygraph.Result), Expands: make(map[string]expandAnswer)}
	for _, q := range queries {
		rs, err := be.Search(ctx, q, rankDepth)
		if err != nil {
			return a, err
		}
		a.Searches[q] = rs
	}
	for _, kw := range keywords {
		resp, err := querygraph.ExpandRequest{Keywords: kw, K: rankDepth}.Do(ctx, be)
		if err != nil {
			return a, err
		}
		a.Expands[kw] = expandAnswer{Features: resp.Expansion.FeatureTitles(), Results: resp.Results}
	}
	return a, nil
}

func sameResults(a, b []querygraph.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mismatches counts the answers of a that differ from ref's.
func (a answers) mismatches(ref answers) int {
	n := 0
	for q, rs := range a.Searches {
		if want, ok := ref.Searches[q]; !ok || !sameResults(rs, want) {
			n++
		}
	}
	for kw, got := range a.Expands {
		want, ok := ref.Expands[kw]
		if !ok || !sameResults(got.Results, want.Results) || len(got.Features) != len(want.Features) {
			n++
			continue
		}
		for i := range got.Features {
			if got.Features[i] != want.Features[i] {
				n++
				break
			}
		}
	}
	return n
}

func (a answers) size() int { return len(a.Searches) + len(a.Expands) }

// fingerprint hashes the top-k ids, scores and feature lists in a fixed
// order, so two commits' answers can be compared by eye.
func (a answers) fingerprint() string {
	h := sha256.New()
	var buf [12]byte
	writeResults := func(rs []querygraph.Result) {
		for _, r := range rs {
			binary.LittleEndian.PutUint32(buf[:4], uint32(r.Doc))
			binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(r.Score))
			h.Write(buf[:])
		}
	}
	for _, q := range sortedKeys(a.Searches) {
		h.Write([]byte(q))
		writeResults(a.Searches[q])
	}
	for _, kw := range sortedKeys(a.Expands) {
		h.Write([]byte(kw))
		for _, f := range a.Expands[kw].Features {
			h.Write([]byte{0})
			h.Write([]byte(f))
		}
		writeResults(a.Expands[kw].Results)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
