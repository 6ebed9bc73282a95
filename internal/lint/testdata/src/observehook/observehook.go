// Package observehook is the observehook analyzer's fixture: request-
// envelope coverage on the query-path methods of an observed runtime.
package observehook

import "context"

type event struct{ op string }

// Runtime is a serving runtime whose request paths must be observed.
//
//qlint:observed
type Runtime struct{}

// read is the envelope: gates, work, one event on every path out.
func (r *Runtime) read(ctx context.Context, ev *event, work func() error) error { return work() }

// SearchInto is the enforced shape: one envelope call, top level, with
// every early return inside the work it is handed.
func (r *Runtime) SearchInto(ctx context.Context, q string, k int) (err error) {
	ev := event{op: "search"}
	err = r.read(ctx, &ev, func() error { return nil })
	return err
}

// Search delegates to another observed method: that is its envelope call.
func (r *Runtime) Search(ctx context.Context, q string, k int) error {
	return r.SearchInto(ctx, q, k)
}

// Reload returns the envelope's error directly.
func (r *Runtime) Reload(path string) error {
	return r.read(context.TODO(), &event{op: "reload"}, func() error { return nil })
}

func (r *Runtime) SearchExpansion(ctx context.Context, exp string, k int) error { // want `never enters the request envelope`
	return nil
}

func (r *Runtime) Expand(ctx context.Context, kw string) error { // want `enters the request envelope 2 times`
	ev := event{op: "expand"}
	_ = r.read(ctx, &ev, func() error { return nil })
	return r.read(ctx, &ev, func() error { return nil })
}

func (r *Runtime) ExpandAll(ctx context.Context, kws []string) error { // want `nested inside a conditional`
	if len(kws) > 0 {
		// The empty batch skips the envelope: exactly the bug class the
		// analyzer exists for.
		return r.read(ctx, &event{op: "batch"}, func() error { return nil })
	}
	return nil
}

// Ingest re-enters the envelope from inside its own work.
func (r *Runtime) Ingest(ctx context.Context) error { // want `enters the request envelope 2 times`
	return r.read(ctx, &event{op: "ingest"}, func() error { return r.Compact(ctx) })
}

func (r *Runtime) Compact(ctx context.Context) error {
	return r.read(ctx, &event{op: "compact"}, func() error { return nil })
}

// Unobserved types are unconstrained.
type Plain struct{}

func (p *Plain) Search(ctx context.Context, q string, k int) error { return nil }
