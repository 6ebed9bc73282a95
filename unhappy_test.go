package querygraph

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestUnhappyPathsAgree pins the answers off the happy path on every
// runtime, one row per case: they are the same on a Client, a Pool and a
// Remote, because they come from the one query path and from core, not
// from a runtime's own checks.
func TestUnhappyPathsAgree(t *testing.T) {
	ctx := context.Background()
	ref, backends := conformanceBackends(t)
	kw := ref.Queries()[0].Keywords
	exp, err := ref.Expand(ctx, kw)
	if err != nil {
		t.Fatal(err)
	}
	// An expansion naming an article the graph does not have, beside the
	// ones it has.
	unknown := *exp
	unknown.QueryArticles = append(append([]NodeID{}, exp.QueryArticles...), 1<<30)

	cases := []struct {
		name string
		run  func(t *testing.T, be Backend)
	}{
		{"Title of an unknown node is empty at once", func(t *testing.T, be Backend) {
			// The fastest of a few calls: a shard that took the id for a
			// malformed request sent the coordinator through retries with
			// backoff, ~20 ms, where a known id takes tens of µs.
			fastest := time.Hour
			for i := 0; i < 5; i++ {
				start := time.Now()
				if title := be.Title(1 << 30); title != "" {
					t.Fatalf("Title(1<<30) = %q, want \"\"", title)
				}
				fastest = min(fastest, time.Since(start))
			}
			if fastest > 5*time.Millisecond {
				t.Errorf("Title(1<<30) took %v at best, want an answer without retries", fastest)
			}
		}},
		{"SearchExpansion of an unknown article is an invalid query", func(t *testing.T, be Backend) {
			if rs, _, err := be.SearchExpansion(ctx, &unknown, 5); rs != nil || !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("SearchExpansion = %v, %v; want ErrInvalidQuery", rs, err)
			}
		}},
		{"SearchExpansions of an unknown article is an invalid query", func(t *testing.T, be Backend) {
			rss, err := searchExpansions(ctx, be, []*Expansion{exp, &unknown}, 5, BatchOptions{})
			if rss != nil || !errors.Is(err, ErrInvalidQuery) || !strings.HasPrefix(err.Error(), "expansion 1: ") {
				t.Fatalf("SearchExpansions = %v, %v; want expansion 1's ErrInvalidQuery", rss, err)
			}
		}},
		{"SearchAll names the bad query's index", func(t *testing.T, be Backend) {
			rss, err := searchAll(ctx, be, []string{kw, kw, "#combine(", kw}, 5, BatchOptions{})
			if rss != nil || !errors.Is(err, ErrInvalidQuery) || !strings.HasPrefix(err.Error(), "query 2: ") {
				t.Fatalf("SearchAll = %v, %v; want query 2's ErrInvalidQuery", rss, err)
			}
		}},
	}
	for name, be := range backends {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) { tc.run(t, be) })
		}
	}
	// The Client's own title-query evaluation runs the same check.
	if _, _, err := ref.Evaluate(ctx, kw, unknown.QueryArticles, nil); !errors.Is(err, ErrInvalidQuery) {
		t.Errorf("Evaluate of an unknown article = %v, want ErrInvalidQuery", err)
	}
}

// TestRequestPanicIsContained: a nil expansion panics inside
// SearchExpansion's work on every runtime — building its title query
// locally, encoding it on a Remote. The read envelope turns the panic into
// the request's internal error and emits its one event; the pinned
// generation or in-flight count is released, so the backend serves on and
// Close still returns.
func TestRequestPanicIsContained(t *testing.T) {
	ctx := context.Background()
	rec := &recordingObserver{}
	ref, backends := conformanceBackends(t, WithObserver(rec))
	kw := ref.Queries()[0].Keywords
	for name, be := range backends {
		t.Run(name, func(t *testing.T) {
			rec.drain()
			_, _, err := be.SearchExpansion(ctx, nil, 5)
			if ErrorClass(err) != "internal" || !strings.Contains(err.Error(), "request panicked") {
				t.Fatalf("SearchExpansion(nil) = %v, want a contained panic of class internal", err)
			}
			if events := rec.drain(); len(events) != 1 || events[0].Op != OpSearch || events[0].Err != "internal" {
				t.Fatalf("events = %+v, want one internal OpSearch", events)
			}
			if _, err := be.Search(ctx, kw, 5); err != nil {
				t.Fatalf("Search after the panic: %v", err)
			}
			closed := make(chan error, 1)
			go func() { closed <- be.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not return: the panicking request kept its pin")
			}
		})
	}
}
