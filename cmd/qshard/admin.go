package main

import (
	"context"
	"log/slog"
	"time"

	"github.com/querygraph/querygraph/internal/rpc"
	"github.com/querygraph/querygraph/internal/trace"
)

// requestHook builds the rpc.Server hook that attributes shard-side
// work to the originating coordinator request: requests carrying a
// trace ID land in the flight recorder under that ID (so one
// coordinator trace can be joined against each shard's recorder), the
// access log gets one line per request, and anything at or over the
// slowlog threshold is logged at warn level. Untraced (trace-id-0)
// requests are logged but never recorded — the recorder
// exists for cross-process attribution, and 0 is the reserved
// "untraced" ID.
func requestHook(rec *trace.Recorder, logger *slog.Logger, accessLog bool, slowlogMS float64) rpc.RequestHook {
	return func(op rpc.Op, traceID uint64, start time.Time, dur time.Duration, errClass string) {
		sink := trace.Sink{Logger: logger, AccessLog: accessLog, SlowlogMS: slowlogMS}
		if traceID != 0 {
			sink.Recorder = rec
		}
		r := &trace.Record{
			TraceID: trace.ID(traceID).String(),
			Op:      op.String(),
			Time:    start,
			DurMS:   float64(dur) / 1e6,
			Err:     errClass,
			Spans:   []trace.Span{},
		}
		sink.Emit(context.Background(), "rpc", r,
			slog.String("op", r.Op),
			slog.Float64("dur_ms", r.DurMS),
			slog.String("err", r.Err))
	}
}
