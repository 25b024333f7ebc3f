package cmdstream_test

import (
	"errors"
	"io"
	"strings"
	"testing"

	"pimeval/internal/cmdstream"
	"pimeval/internal/dram"
	"pimeval/internal/streamopt"
)

// TestScopeRulesAgree runs every structural violation through each
// consumer that checks scope rules — ScopeChecker itself, Stream.Validate,
// the replay loop, and the streaming optimizer — and requires the same
// error from all of them, with the truncation sentinel on an unterminated
// scope.
func TestScopeRulesAgree(t *testing.T) {
	hdr := cmdstream.Header{
		Version: cmdstream.Version, Target: "fulcrum", TargetID: 1,
		Module: dram.DDR4(1), Functional: true,
	}
	alloc := cmdstream.Record{Kind: cmdstream.KindAlloc, Obj: 1, Type: "int32", N: 4}
	begin := func(n int64) cmdstream.Record { return cmdstream.Record{Kind: cmdstream.KindRepeatBegin, Repeat: n} }
	end := cmdstream.Record{Kind: cmdstream.KindRepeatEnd}
	cases := []struct {
		name      string
		recs      []cmdstream.Record
		want      string
		truncated bool
	}{
		{"unknown-kind", []cmdstream.Record{alloc, {Kind: "warp"}}, "seq 2: unknown record kind", false},
		{"nested", []cmdstream.Record{alloc, begin(2), begin(3), end, end}, "seq 3: nested repeat scope", false},
		{"zero-factor", []cmdstream.Record{alloc, begin(0), end}, "seq 2: repeat scope with factor 0", false},
		{"unmatched-end", []cmdstream.Record{alloc, end}, "seq 2: repeat.end without matching begin", false},
		{"unterminated", []cmdstream.Record{alloc, begin(2), alloc}, "unterminated repeat scope", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i := range c.recs {
				c.recs[i].Seq = int64(i + 1)
			}
			check := func(who string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: %v, want %q", who, err, c.want)
				}
				if errors.Is(err, cmdstream.ErrTruncated) != c.truncated {
					t.Errorf("%s: %v wraps ErrTruncated = %v, want %v", who, err, !c.truncated, c.truncated)
				}
			}

			var sc cmdstream.ScopeChecker
			var err error
			for i := range c.recs {
				if err = sc.Check(&c.recs[i]); err != nil {
					break
				}
			}
			if err == nil {
				err = sc.End()
			}
			check("ScopeChecker", err)

			s := &cmdstream.Stream{Header: hdr, Records: c.recs}
			check("Validate", s.Validate())
			check("Replay", cmdstream.Replay(newDev(t), s))
			check("ReplaySourceOpts", cmdstream.ReplaySourceOpts(newDev(t),
				cmdstream.FromRecords(hdr, c.recs), cmdstream.ReplayOptions{}))

			src, _, err := streamopt.OptimizeSource(cmdstream.FromRecords(hdr, c.recs),
				streamopt.Config{DeadCode: true, Hoist: true})
			for err == nil {
				_, err = src.Next()
			}
			if err == io.EOF {
				err = nil
			}
			check("OptimizeSource", err)
		})
	}
}

// TestReplaySkipChecksStructure proves the resume prefix is
// structure-checked although none of it executes: a malformed record
// before the cursor fails the replay.
func TestReplaySkipChecksStructure(t *testing.T) {
	hdr := cmdstream.Header{
		Version: cmdstream.Version, Target: "fulcrum", TargetID: 1,
		Module: dram.DDR4(1), Functional: true,
	}
	recs := []cmdstream.Record{
		{Seq: 1, Kind: cmdstream.KindRepeatEnd},
		{Seq: 2, Kind: cmdstream.KindAlloc, Obj: 1, Type: "int32", N: 4},
	}
	err := cmdstream.ReplaySourceOpts(newDev(t), cmdstream.FromRecords(hdr, recs), cmdstream.ReplayOptions{Skip: 1})
	if err == nil || !strings.Contains(err.Error(), "repeat.end without matching begin") {
		t.Fatalf("skipped malformed record: %v", err)
	}
}
