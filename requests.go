package querygraph

import (
	"context"
	"errors"
)

// ExpandRequest is the paper's online method as one call over any
// Backend: expand the keywords through the dense short cycles, then, when
// K > 0, retrieve with the expanded title query.
//
//	resp, err := querygraph.ExpandRequest{Keywords: "doge palace", K: 15}.Do(ctx, be)
//
// The deadline is ctx's. ErrPartialResult is the one error returned
// alongside a usable response: a degrade-policy *Remote that lost shards
// still delivers the survivors' ranking, so Do returns the populated
// response AND the wrapped sentinel, and callers decide whether a partial
// answer is acceptable. Every other error keeps the zero response.
type ExpandRequest struct {
	Keywords string
	// Options tune the expansion; nil uses the paper-tuned defaults
	// (DefaultExpandOptions). Invalid values fail the request with
	// ErrInvalidOptions.
	Options []ExpandOption
	// K > 0 additionally evaluates the expanded title query and attaches
	// the top K documents to the response.
	K int
}

// ExpandResponse is the outcome of one ExpandRequest.
type ExpandResponse struct {
	// Expansion is shared with the backend's cache: read-only.
	Expansion *Expansion
	// Results is the expanded retrieval's ranking when the request asked
	// for one (K > 0) and the expansion had anything to search for;
	// Searched reports the latter.
	Results  []Result
	Searched bool
}

// Do executes the request against any backend.
func (r ExpandRequest) Do(ctx context.Context, b Backend) (ExpandResponse, error) {
	exp, err := b.Expand(ctx, r.Keywords, r.Options...)
	if err != nil {
		return ExpandResponse{}, err
	}
	resp := ExpandResponse{Expansion: exp}
	if r.K <= 0 {
		return resp, nil
	}
	resp.Results, resp.Searched, err = b.SearchExpansion(ctx, exp, r.K)
	if err != nil && !errors.Is(err, ErrPartialResult) {
		return ExpandResponse{}, err
	}
	return resp, err
}
