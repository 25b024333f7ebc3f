package cmdstream

import (
	"fmt"
	"io"
)

// ReplayOptions configures ReplaySourceOpts. The zero value replays the
// whole source with no checkpoints.
type ReplayOptions struct {
	// Skip is the resume cursor: the number of leading records (counting
	// every record, including repeat.begin/repeat.end) to consume without
	// executing before replay starts. It is the cursor a checkpoint reported.
	// A cursor that points past the end of the stream or into the middle of
	// a repeat scope is rejected.
	Skip int64
	// CheckpointEvery is the minimum number of records between checkpoint
	// callbacks. Checkpoints fire only at unit boundaries — never inside a
	// repeat scope — so the executor's state is always self-contained when
	// the callback runs. Zero disables checkpointing.
	CheckpointEvery int64
	// Checkpoint is called with the total record count consumed so far
	// (Skip included): the cursor a later resume passes as Skip. An error
	// aborts the replay.
	Checkpoint func(consumed int64) error
}

// ReplaySourceOpts is the replay loop: it re-executes src against x record
// by record as the records are produced. Only the current record (or the
// current repeat-scope body) is resident, and h2d payloads stream through
// bounded chunks when both the source (ChunkedSource) and the executor
// (ChunkedExecutor) support it. Structure is checked incrementally
// (ScopeChecker), so a malformed suffix is detected only after the
// preceding records have executed; Replay validates a materialized stream
// up front instead.
//
// The first opts.Skip records are structure-checked but not executed, and
// opts.Checkpoint fires at unit boundaries every opts.CheckpointEvery
// records. Because every layer of the stack is deterministic, a replay
// resumed from a restored executor at cursor N is bit-identical to an
// uninterrupted replay — the property the recovery battery in
// benchmarks/suite/replaytest proves.
func ReplaySourceOpts(x Executor, src Source, opts ReplayOptions) error {
	if opts.Skip < 0 {
		return fmt.Errorf("cmdstream: negative resume cursor %d", opts.Skip)
	}
	if opts.CheckpointEvery < 0 {
		return fmt.Errorf("cmdstream: negative checkpoint interval %d", opts.CheckpointEvery)
	}
	h := src.Header()
	verify := h.Functional
	optimized := len(h.Optimized) > 0
	cs, _ := src.(ChunkedSource)
	ce, _ := x.(ChunkedExecutor)

	var sc ScopeChecker
	var consumed int64 // records pulled from src, skipped ones included
	lastCheckpoint := opts.Skip
	var scope []Record // buffered body of the open repeat scope
	var factor int64
	body := func() error {
		for i := range scope {
			if err := replayOne(x, &scope[i], verify, optimized); err != nil {
				return fmt.Errorf("cmdstream: seq %d (%s): %w", scope[i].Seq, scope[i].Kind, err)
			}
		}
		return nil
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		consumed++
		if err := sc.Check(rec); err != nil {
			return err
		}
		if consumed <= opts.Skip {
			// The resume prefix executes nothing; an undrained chunked
			// payload is discarded by the source's own Next contract.
			if consumed == opts.Skip && sc.InScope() {
				return fmt.Errorf("cmdstream: %w: resume cursor %d inside repeat scope", ErrFormat, opts.Skip)
			}
			continue
		}
		switch {
		case rec.Kind == KindRepeatBegin:
			factor, scope = rec.Repeat, scope[:0]
			continue
		case rec.Kind == KindRepeatEnd:
			// The body replays through WithRepeat as one unit, so the
			// executor applies the live run's charging semantics.
			if err := x.WithRepeat(factor, body); err != nil {
				return err
			}
		case sc.InScope():
			// Scope bodies are buffered (scopes are bounded; payloads
			// inside them materialize).
			if err := Materialize(src, rec); err != nil {
				return err
			}
			scope = append(scope, *rec)
			continue
		case rec.Kind == KindCopyH2D && cs != nil && ce != nil && cs.PendingPayload():
			// The out-of-core h2d path: the payload flows source → device
			// in bounded chunks and is never materialized.
			if err := ce.CopyHostToDeviceFrom(ObjID(rec.Obj), cs.NextPayloadChunk); err != nil {
				return fmt.Errorf("cmdstream: seq %d (%s): %w", rec.Seq, rec.Kind, err)
			}
		default:
			if err := Materialize(src, rec); err != nil {
				return err
			}
			if err := replayOne(x, rec, verify, optimized); err != nil {
				return fmt.Errorf("cmdstream: seq %d (%s): %w", rec.Seq, rec.Kind, err)
			}
		}
		// A unit (single record or whole repeat scope) just completed
		// outside any scope: a valid resume point.
		if opts.Checkpoint != nil && opts.CheckpointEvery > 0 &&
			consumed-lastCheckpoint >= opts.CheckpointEvery {
			if err := opts.Checkpoint(consumed); err != nil {
				return fmt.Errorf("cmdstream: checkpoint at record %d: %w", consumed, err)
			}
			lastCheckpoint = consumed
		}
	}
	if consumed < opts.Skip {
		return fmt.Errorf("cmdstream: %w: stream ends at record %d, resume cursor %d",
			ErrTruncated, consumed, opts.Skip)
	}
	return sc.End()
}
